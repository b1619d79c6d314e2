"""Per-layer tracing from outside the program.

``Tracer.install`` rebinds public functions and methods of the imported
oocf modules to wrappers defined here.  A name is rebound in every module
that holds the same object (``sign_linear`` lives both in ``core`` and in
``approx``), and ``uninstall`` puts every original back.

Spans are kept in memory as per-name totals: calls, self time (duration
minus the spans of its children) and the number of calls under each parent
span.  Generator functions get one span per resumption, so the work done
while a consumer pulls items is charged to the generator.  Work counts are
taken at the outermost call into a layer, so an internal call between two
functions of one layer is not counted twice.
"""

import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter_ns

MODULES = ("core", "maps", "expansion", "convergents", "approx", "rcf", "svg", "cli")

# (module, name) traced as spans; generator functions are marked True
SPANS = {
    ("core", "parse_real"): False,
    ("maps", "oocf_branch_of"): False,
    ("maps", "branch_apply"): False,
    ("maps", "eicf_branch_of"): False,
    ("expansion", "expand"): False,
    ("expansion", "evaluate"): False,
    ("expansion", "detect_period"): False,
    ("expansion", "digit_stream"): True,
    ("convergents", "convergent_stream"): True,
    ("convergents", "convergent_table"): False,
    ("approx", "best_one_rationals"): False,
    ("approx", "principal_convergents_up_to"): False,
    ("approx", "keita_monotonicity"): False,
    ("rcf", "rcf_to_oocf"): False,
    ("rcf", "rcf_digit_stream"): True,
    ("rcf", "verify_intermediate"): False,
    ("rcf", "verify_conjugacy"): False,
    ("rcf", "eicf_best_to_oocf"): False,
    ("svg", "ford_svg"): False,
    ("cli", "main"): False,
}

# spans whose self time is a named metric; convergent_table is traced only
# so that the triples it returns are counted at the outermost call
SELF_MS = [f"{m}.{n}" for m, n in SPANS if n != "convergent_table"]


def _bits(x) -> int:
    if isinstance(x, int):
        return x.bit_length()
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    return max(abs(x.p).bit_length(), abs(x.s).bit_length(), x.q.bit_length())


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_ns = Counter()
        self.parents = Counter()  # (parent span, span) -> calls
        self.counts = Counter()
        self.max_state_bits = 0
        self._stack = []  # [name, start_ns, children_ns]
        self._saved = []  # (owner, attribute, original)

    # -- spans ----------------------------------------------------------

    def _enter(self, name: str) -> None:
        self._stack.append([name, perf_counter_ns(), 0])

    def _exit(self) -> None:
        name, start, children = self._stack.pop()
        dur = perf_counter_ns() - start
        self.self_ns[name] += dur - children
        if self._stack:
            self._stack[-1][2] += dur

    def _parent(self) -> str:
        return self._stack[-1][0] if self._stack else "op"

    def _outermost(self, layer: str) -> bool:
        """True when the innermost open span is outside ``layer``."""
        return not self._parent().startswith(layer + ".")

    def span_function(self, name: str, fn):
        layer = name.split(".")[0]

        def traced(*args, **kwargs):
            self.calls[name] += 1
            self.parents[self._parent(), name] += 1
            outer = self._outermost(layer)
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if outer:
                self._count_work(name, args, kwargs, result)
            return result
        return traced

    def span_generator(self, name: str, fn):
        layer = name.split(".")[0]

        def traced(*args, **kwargs):
            self.calls[name] += 1
            self.parents[self._parent(), name] += 1
            it = fn(*args, **kwargs)
            try:
                while True:
                    outer = self._outermost(layer)
                    self._enter(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._exit()
                    if outer:
                        self._count_work(name, args, kwargs, item)
                    yield item
            finally:
                it.close()
        return traced

    def _count_work(self, name, args, kwargs, result) -> None:
        if name == "expansion.expand":
            self.counts["expansion.digits"] += len(result.digits)
        elif name == "expansion.detect_period":
            self.counts["expansion.digits"] += sum(result)
        elif name == "expansion.digit_stream":
            self.counts["expansion.digits"] += 1
        elif name == "convergents.convergent_table":
            self.counts["convergents.triples"] += len(result)
        elif name == "convergents.convergent_stream":
            self.counts["convergents.triples"] += 1
        elif name == "approx.best_one_rationals":
            qmax = args[1] if len(args) > 1 else kwargs["qmax"]
            self.counts["approx.denominators"] += len(range(1, qmax + 1, 2))

    # -- counted leaves -------------------------------------------------

    def count_function(self, name: str, fn):
        calls = self.calls

        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    def count_sign_linear(self, fn):
        """Counts every call, and apart the calls made directly inside the
        best-approximation scan."""
        calls = self.calls
        stack = self._stack

        def counted(m, n, d):
            calls["core.sign_linear"] += 1
            if stack and stack[-1][0] == "approx.best_one_rationals":
                calls["core.sign_linear.in_scan"] += 1
            return fn(m, n, d)
        return counted

    def _wrap_branch_apply(self, fn):
        def sized(digit, x):
            b = _bits(x)
            if b > self.max_state_bits:
                self.max_state_bits = b
            return fn(digit, x)
        return sized

    def _wrap_quadirr_init(self, init):
        calls = self.calls

        def counted(obj, *args, **kwargs):
            calls["core.QuadIrr.created"] += 1
            return init(obj, *args, **kwargs)
        return counted

    # -- installing -----------------------------------------------------

    def _rebind(self, original, wrapper) -> None:
        for mod_name in ("oocf",) + tuple("oocf." + m for m in MODULES):
            mod = sys.modules[mod_name]
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        mods = {m: sys.modules["oocf." + m] for m in MODULES}
        # hot leaf functions are counted without a span
        core = mods["core"]
        self._rebind(core.sign_linear, self.count_sign_linear(core.sign_linear))
        self._rebind(core.is_square, self.count_function("core.is_square", core.is_square))
        for (mod, name), is_gen in SPANS.items():
            fn = getattr(mods[mod], name)
            inner = self._wrap_branch_apply(fn) if name == "branch_apply" else fn
            make = self.span_generator if is_gen else self.span_function
            self._rebind(fn, make(f"{mod}.{name}", inner))
        quad = mods["core"].QuadIrr
        self._saved.append((quad, "__init__", quad.__init__))
        quad.__init__ = self._wrap_quadirr_init(quad.__init__)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    def op(self, fn, *args):
        """Run one op as a root span."""
        self._enter("op")
        try:
            return fn(*args)
        finally:
            self._exit()

    # -- results ----------------------------------------------------------

    def per_layer(self, ops: int) -> dict:
        """Per-op counts and self times (ms) of the named layer metrics."""
        c, t, n = self.calls, self.self_ns, self.counts
        out = {}
        for name in SELF_MS:
            out[name + ".self_ms"] = t[name] / 1e6 / ops
        out["core.sign_linear.calls"] = c["core.sign_linear"] / ops
        out["core.is_square.calls"] = c["core.is_square"] / ops
        out["core.QuadIrr.created"] = c["core.QuadIrr.created"] / ops
        digits = n["expansion.digits"]
        out["core.QuadIrr.created_per_digit"] = (
            c["core.QuadIrr.created"] / digits if digits else 0.0)
        out["maps.oocf_branch_of.calls"] = c["maps.oocf_branch_of"] / ops
        out["maps.eicf_branch_of.calls"] = c["maps.eicf_branch_of"] / ops
        out["expansion.digits"] = digits / ops
        out["expansion.max_state_bits"] = self.max_state_bits
        out["convergents.triples"] = n["convergents.triples"] / ops
        dens = n["approx.denominators"]
        out["approx.denominators"] = dens / ops
        out["approx.sign_tests_per_denominator"] = (
            c["core.sign_linear.in_scan"] / dens if dens else 0.0)
        out["cli.stdout_bytes"] = n["cli.stdout_bytes"] / ops
        return out

    def dump(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_ms": {k: v / 1e6 for k, v in self.self_ns.items()},
            "parents": [[p, s, k] for (p, s), k in sorted(self.parents.items())],
            "counts": dict(self.counts),
            "max_state_bits": self.max_state_bits,
        }
