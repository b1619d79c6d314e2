"""Static SVG rendering of Ford circles over [0, 1].

Circles are shaded by parity class (gray for odd/odd bases, white
otherwise) and the principal convergents of an optional input are stroked
in red.  Output is byte-identical across runs: circles are emitted in
(denominator, numerator) order with fixed-precision coordinates.
"""

from itertools import islice
from math import gcd

from .convergents import convergent_stream
from .expansion import digit_stream
from .maps import _unit

_GRAY = "#c8c8c8"
_WHITE = "#ffffff"
_STROKE = "#404040"
_HIGHLIGHT = "#cc2200"

# The output grows with the square of den_max: 1000 gives about 3*10^5
# circles and 30 MiB.
MAX_DEN = 1000
_WIDTH = 800


def ford_svg(highlight=None, n_highlight: int = 4, den_max: int = 9) -> str:
    """SVG document showing all Ford circles with denominator <= den_max,
    plus the circles of the first n_highlight principal convergents of
    ``highlight`` when given."""
    if not 1 <= den_max <= MAX_DEN:
        raise ValueError(f"den_max must lie in [1, {MAX_DEN}], got {den_max}")
    margin = 24
    scale = _WIDTH - 2 * margin
    height = scale / 2 + 2 * margin
    base_y = height - margin

    def circle(p: int, q: int, stroke: str, sw: float) -> str:
        # p/q in lowest terms, so odd/odd by parity; int/int true division
        # rounds once, exactly, however large the convergent
        fill = _GRAY if p % 2 == 1 and q % 2 == 1 else _WHITE
        r = scale / (2 * q * q)
        cx = margin + scale * p / q
        return (f'<circle cx="{cx:.4f}" cy="{base_y - r:.4f}" '
                f'r="{r:.4f}" fill="{fill}" stroke="{stroke}" '
                f'stroke-width="{sw:.4f}"/>')

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{height:.4f}" viewBox="0 0 {_WIDTH} {height:.4f}">',
        f'<rect width="{_WIDTH}" height="{height:.4f}" fill="white"/>',
        f'<line x1="{margin:.4f}" y1="{base_y:.4f}" x2="{margin + scale:.4f}" '
        f'y2="{base_y:.4f}" stroke="{_STROKE}" stroke-width="1.0"/>',
    ]
    for q in range(1, den_max + 1):
        for p in range(0, q + 1):
            if gcd(p, q) == 1:
                lines.append(circle(p, q, _STROKE, 0.8))
    if highlight is not None:
        stream = convergent_stream(digit_stream(_unit(highlight)))
        for t in islice(stream, 1, max(n_highlight, 0) + 1):
            c = t.principal
            lines.append(circle(c.numerator, c.denominator, _HIGHLIGHT, 2.0))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
