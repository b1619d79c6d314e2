"""Benchmark of oocf: one workload, one seed, one run.

    python3 perfbench/run.py --workload quad-periods --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; oocf is imported from its ``src``.  The
run drives oocf from this one process and thread in a closed loop with one
caller: whole rounds of the workload's seeded cases, each op started when
the previous one has returned, until ``--seconds`` of op and calibration
time have passed and at least MIN_OPS ops were made.  Every op's output is
checked right after the op, outside the timed region.  The op times are
reported at a reference speed of the machine, measured by calibration
units that run right before and after each op.

The last line of stdout is the result: ``correct``, ``attempted``,
``failed`` and ``metrics``, the end-to-end metrics with ``--trace 0`` and
the per-layer metrics with ``--trace 1``.  The line before it, and
``.perfbench/runs.jsonl``, hold the raw record of the run; a traced run
also writes its spans to ``.perfbench/trace-<workload>-<seed>.json``.
"""

import argparse
import compileall
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from itertools import accumulate
from pathlib import Path
from random import Random

from tracer import MODULES, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

MIN_OPS = 100          # so that ten samples lie beyond the 90th percentile
SETUP_STARTS = 21      # interpreter starts timed for setup_s, spread over the run
IMPORTTIME_SPAWNS = 5  # interpreter starts read with -X importtime
POOL_MS = 10           # least calibration time an op's scale is taken from
REF_UNIT_MS = 0.5      # a calibration unit's wall time at the reference speed


def calibration_unit() -> None:
    """A fixed pure-Python task that does not touch oocf: small-integer
    arithmetic, then a continued fraction built from Fraction objects.  Its
    wall time tells how fast the host runs Python at that moment."""
    acc = 0
    for i in range(2000):
        acc = (acc + i * i) % 1_000_003
    x = Fraction(0)
    for k in range(1, 40):
        x = 1 / (k + x)


def calibrate(units: int) -> int:
    """Wall time in ns of ``units`` calibration units run back to back."""
    t0 = time.perf_counter_ns()
    for _ in range(units):
        calibration_unit()
    return time.perf_counter_ns() - t0


def compile_sources() -> None:
    """Write oocf's bytecode next to its sources, whatever the caller's
    PYTHONDONTWRITEBYTECODE, so that every timed start reads it."""
    compileall.compile_dir(SRC / "oocf", quiet=1)


def _spawn(args) -> subprocess.CompletedProcess:
    """A fresh interpreter with -B: it reads the bytecode that
    compile_sources wrote and writes none itself."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-B", *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60, check=True)


def setup_start_s() -> float:
    """Time from starting a fresh interpreter until oocf and oocf.cli are
    imported."""
    t0 = time.perf_counter()
    _spawn(["-c", "import oocf, oocf.cli"])
    return time.perf_counter() - t0


def import_self_us() -> dict:
    """Median self time of each oocf module's import, from -X importtime."""
    samples = {m: [] for m in MODULES}
    for _ in range(IMPORTTIME_SPAWNS):
        err = _spawn(["-X", "importtime", "-c", "import oocf.cli"]).stderr
        for line in err.splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+\d+ \|\s+oocf\.(\w+)$", line)
            if m and m.group(2) in samples:
                samples[m.group(2)].append(int(m.group(1)))
    return {f"import.oocf.{m}.self_us": statistics.median(v) for m, v in samples.items()}


def src_lines() -> int:
    return sum(1 for path in sorted((SRC / "oocf").glob("*.py"))
               for line in path.read_text(encoding="utf-8").splitlines() if line.strip())


class Run:
    """Ops, failures and check results of one run."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.messages = []
        self.errors = []
        self.cal = []  # (units, ns) of the calibration around each op

    def round(self, cases, call=None, seen=None, calibrated=False) -> list[int]:
        """One round over the cases; returns each op's wall time in ns.
        With ``calibrated``, half the workload's calibration units run right
        before each op and half right after it.  Each output is checked,
        and handed to ``seen``, after its op's timing ends.  An op that
        raises is a failed op."""
        from workloads import verify
        run = self.workload.run
        units = self.workload.cal_units if calibrated else 0
        lat = []
        for case in cases:
            self.attempted += 1
            before = calibrate(units // 2)
            t0 = time.perf_counter_ns()
            try:
                out = call(run, case) if call else run(case)
            except Exception as exc:  # a failed op must not end the run
                out, error = None, exc
            else:
                error = None
            lat.append(time.perf_counter_ns() - t0)
            if units:
                self.cal.append((units, before + calibrate(units - units // 2)))
            if error is not None:
                self.failed += 1
                self.errors.append("".join(traceback.format_exception_only(error)).strip())
                continue
            problem = verify(self.workload, case, out)
            if problem:
                self.wrong += 1
                if len(self.messages) < 10:
                    self.messages.append(f"{case.kind} {case.args!r}: {problem}")
            if seen:
                seen(out)
        return lat


def scaled_ms(wall_ns: list[int], cal: list[tuple[int, int]]) -> list[float]:
    """Each op's wall time at the reference speed: times REF_UNIT_MS over
    the mean wall time of the calibration units run around it and around as
    many ops on either side as make up POOL_MS of calibration."""
    units = list(accumulate((u for u, _ in cal), initial=0))
    ns = list(accumulate((t for _, t in cal), initial=0))
    n, out = len(wall_ns), []
    for i, t in enumerate(wall_ns):
        lo, hi = i, i + 1
        while ns[hi] - ns[lo] < POOL_MS * 1e6 and (lo > 0 or hi < n):
            lo, hi = max(lo - 1, 0), min(hi + 1, n)
        unit_ms = (ns[hi] - ns[lo]) / (units[hi] - units[lo]) / 1e6
        out.append(t / 1e6 * REF_UNIT_MS / unit_ms)
    return out


def measure(wl, cases, seconds: float) -> tuple[Run, dict]:
    """Whole rounds until ``seconds`` of op and calibration time and
    MIN_OPS ops, with the op times scaled to the reference speed.  A shared
    host can run the same code a third faster or slower from one second
    to the next, and the calibration units run right next to the
    ops, so the scaled times measure the program rather than the phase of
    the host it met.  Between rounds, the interpreter starts of setup_s,
    spread evenly over the run."""
    r = Run(wl)
    wall, setup = [], []
    busy = 0.0
    while busy < seconds or r.attempted < MIN_OPS:
        n_cal = len(r.cal)
        round_lat = r.round(cases, calibrated=True)
        wall += round_lat
        busy += (sum(round_lat) + sum(t for _, t in r.cal[n_cal:])) / 1e9
        while len(setup) < min(SETUP_STARTS, int(SETUP_STARTS * busy / seconds)):
            setup.append(setup_start_s())
    ok = r.attempted - r.failed
    lat = scaled_ms(wall, r.cal)
    wall = [t / 1e6 for t in wall]
    unit_ms = [t / u / 1e6 for u, t in r.cal]
    return r, {
        "setup_s": statistics.median(setup),
        "setup_samples_s": setup,
        "ops_per_s": ok / (sum(lat) / 1e3),
        "latency_p50_ms": statistics.median(lat),
        "latency_p90_ms": statistics.quantiles(lat, n=10)[8],
        "wall": {"ops_per_s": ok / (sum(wall) / 1e3),
                 "latency_p50_ms": statistics.median(wall),
                 "latency_p90_ms": statistics.quantiles(wall, n=10)[8]},
        "busy_s": busy,
        "unit_ms": statistics.quantiles(unit_ms, n=4),
    }


def measure_traced(wl, cases, seconds: float) -> tuple[Run, dict, object]:
    """Alternate untraced and traced rounds of the same cases; counts are
    per op over the traced rounds, which are identical, so they do not
    depend on how many rounds fit in the time."""
    r = Run(wl)
    tracer = Tracer()

    def seen(out):
        if wl.name == "cli-requests":
            tracer.counts["cli.stdout_bytes"] += len(out[1].encode())

    plain = traced = rounds = 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        plain += sum(r.round(cases))
        tracer.install()
        try:
            traced += sum(r.round(cases, tracer.op, seen))
        finally:
            tracer.uninstall()
        rounds += 1
    layer = tracer.per_layer(rounds * len(cases))
    layer.update(import_self_us())
    layer["src.lines"] = src_lines()
    layer["trace.overhead_ratio"] = traced / plain
    return r, layer, tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if not (SRC / "oocf" / "__init__.py").is_file():
        print(f"error: no oocf sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import oocf
    if Path(oocf.__file__).resolve().parent != SRC / "oocf":
        print(f"error: imported oocf from {oocf.__file__}, not {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]

    t_start = time.perf_counter()
    compile_sources()
    if not args.trace:
        setup_start_s()  # untimed: the first start fills the file cache
    t_cases = time.perf_counter()
    cases = wl.cases(Random(f"{args.workload}:{args.seed}"))
    case_build_s = time.perf_counter() - t_cases
    if args.trace:
        r, metrics, tracer = measure_traced(wl, cases, args.seconds)
    else:
        r, raw = measure(wl, cases, args.seconds)
        metrics = {k: raw[k] for k in ("setup_s", "ops_per_s",
                                       "latency_p50_ms", "latency_p90_ms")}
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    declared = bench["per_layer" if args.trace else "end_to_end"]

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cases": len(cases), "attempted": r.attempted,
        "failed": r.failed, "errors": r.errors[:10],
        "wrong": r.wrong, "wrong_messages": r.messages,
        "case_build_s": case_build_s,
        "total_s": time.perf_counter() - t_start, "metrics": metrics,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "time": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    if not args.trace:
        record.update({k: raw[k] for k in ("setup_samples_s", "wall", "busy_s",
                                           "unit_ms")})
    OUT.mkdir(exist_ok=True)
    with open(OUT / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    if args.trace:
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
        trace_path.write_text(json.dumps({**record, "spans": tracer.dump()}, indent=1),
                              encoding="utf-8")
    for w in r.messages + r.errors[:10]:
        print(f"{args.workload}: {w}", file=sys.stderr)

    print(json.dumps({"raw": record}))
    print(json.dumps({
        "correct": not r.wrong,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
