"""Steadiness of the benchmark: two sets of runs of one commit, apart in time.

    python3 perfbench/steady.py

Each set runs every workload of BENCHMARK.json once per seed, seed by
seed, untraced and for its ``run_seconds``: set A uses seeds 1-10, and set B
seeds 11-20, starting two minutes after set A ends.  For each workload and
end-to-end metric it prints both sets' medians and quartiles, the spread
within a set (interquartile range over the median) and the drift between
the sets (the change of the median, signed so that a positive drift is a
change for the worse).  The bounds in BENCHMARK.json are set from the
drift.  The unscaled wall times of each run and the median wall time of its
calibration unit, which does not touch oocf, are summarised per set the
same way, so that a slow phase of the machine can be told apart from a
slower program.  The full record goes to
``.perfbench/steady-<time>.json``.
"""

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10     # seeds per set
GAP_S = 120   # seconds between the sets


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    result["raw"] = json.loads(lines[-2])["raw"]
    return result


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    sets = []
    for k in range(2):
        if k:
            time.sleep(GAP_S)
        runs = {w: [] for w in workloads}
        for seed in range(k * RUNS + 1, (k + 1) * RUNS + 1):
            for w in workloads:
                res = run_once(w, seed, seconds)
                runs[w].append(res)
                print(f"set {k + 1} seed {seed:2d} {w:13s} correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']} "
                      + " ".join(f"{m}={v['value']:.4g}" for m, v in res["metrics"].items()),
                      file=sys.stderr, flush=True)
        sets.append(runs)

    report = {"seconds": seconds, "runs": RUNS, "gap": GAP_S, "workloads": {}}
    print(f"{'workload':13s} {'metric':15s} {'median A':>10s} {'q1..q3 A':>19s} "
          f"{'median B':>10s} {'q1..q3 B':>19s} {'spread A':>9s} {'spread B':>9s} "
          f"{'drift':>7s} {'bound':>6s}")
    for w in workloads:
        rows = {}
        for m in metrics:
            name, sign = m["name"], (1 if m["better"] == "lower" else -1)
            a, b = (summary([r["metrics"][name]["value"] for r in s[w]]) for s in sets)
            drift = sign * (b["median"] - a["median"]) / a["median"]
            rows[name] = {"A": a, "B": b, "drift": drift, "bound": m["bound"]}
            print(f"{w:13s} {name:15s} {a['median']:10.4g} {a['q1']:9.4g}..{a['q3']:<8.4g} "
                  f"{b['median']:10.4g} {b['q1']:9.4g}..{b['q3']:<8.4g} "
                  f"{a['spread']:9.3f} {b['spread']:9.3f} {drift:+7.3f} {m['bound']:6.2f}")
        # the unscaled wall times and the calibration unit, for comparison
        extra = {f"wall {m}": [[r["raw"]["wall"][m] for r in s[w]] for s in sets]
                 for m in ("ops_per_s", "latency_p50_ms", "latency_p90_ms")}
        extra["unit_ms"] = [[r["raw"]["unit_ms"][1] for r in s[w]] for s in sets]
        for name, values in extra.items():
            a, b = (summary(v) for v in values)
            extra[name] = {"A": a, "B": b}
            print(f"{w:13s} {name:15s} {a['median']:10.4g} {'':19s} {b['median']:10.4g} "
                  f"{'':19s} {a['spread']:9.3f} {b['spread']:9.3f}")
        failed = [sum(r["failed"] for r in s[w]) / sum(r["attempted"] for r in s[w])
                  for s in sets]
        print(f"{w:13s} failed share {failed[0]:.4g} / {failed[1]:.4g}")
        report["workloads"][w] = {
            "metrics": rows, "unscaled": extra, "failed_share": failed,
            "correct": all(r["correct"] for s in sets for r in s[w]),
            "runs": [[{"seed": r["raw"]["seed"], "metrics": r["metrics"],
                       "attempted": r["attempted"], "failed": r["failed"],
                       "wall": r["raw"]["wall"], "unit_ms": r["raw"]["unit_ms"]}
                      for r in s[w]] for s in sets],
        }
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    path = out / time.strftime("steady-%Y%m%dT%H%M%S.json")
    path.write_text(json.dumps(report, indent=1), encoding="utf-8")
    print(f"record: {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
