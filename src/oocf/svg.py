"""Static SVG rendering of Ford circles over [0, 1].

Circles are shaded by parity class (gray for odd/odd bases, white
otherwise) and the principal convergents of an optional input are stroked
in red.  Output is byte-identical across runs: circles are emitted in
(denominator, numerator) order with fixed-precision coordinates, and all
but cx of a row of one denominator is formatted once for each of two fills.
"""

from math import gcd

from .convergents import convergent_stream
from .expansion import digit_stream
from .maps import _unit

_GRAY = "#c8c8c8"
_WHITE = "#ffffff"
_STROKE = "#404040"
_HIGHLIGHT = "#cc2200"

# The output grows with the square of den_max: 1000 gives 304,193 circles,
# 30 MiB, in 0.25-0.36 s (in-process, Python 3.11, shared 2-vCPU host).
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

    def tail(q: int, fill: str, stroke: str, sw: float) -> str:
        # the text after cx, which depends on q but not on p
        r = scale / (2 * q * q)
        return (f'" cy="{base_y - r:.4f}" r="{r:.4f}" fill="{fill}" '
                f'stroke="{stroke}" stroke-width="{sw:.4f}"/>')

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{height:.4f}" viewBox="0 0 {_WIDTH} {height:.4f}">',
        f'<rect width="{_WIDTH}" height="{height:.4f}" fill="white"/>',
        f'<line x1="{margin:.4f}" y1="{base_y:.4f}" x2="{margin + scale:.4f}" '
        f'y2="{base_y:.4f}" stroke="{_STROKE}" stroke-width="1.0"/>',
    ]
    for q in range(1, den_max + 1):
        # p/q in lowest terms is odd/odd exactly when p and q are odd;
        # int/int true division rounds once, exactly, however large p and q
        white = tail(q, _WHITE, _STROKE, 0.8)
        odd = tail(q, _GRAY, _STROKE, 0.8) if q % 2 else white
        lines += [f'<circle cx="{margin + scale * p / q:.4f}{odd if p % 2 else white}'
                  for p in range(q + 1) if gcd(p, q) == 1]
    if highlight is not None:
        stream = convergent_stream(digit_stream(_unit(highlight)))
        next(stream)  # the seed row
        for _, t in zip(range(n_highlight), stream):
            fill = _GRAY if t.p % 2 and t.q % 2 else _WHITE
            lines.append(f'<circle cx="{margin + scale * t.p / t.q:.4f}'
                         + tail(t.q, fill, _HIGHLIGHT, 2.0))
    lines.append("</svg>\n")
    return "\n".join(lines)
