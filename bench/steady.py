"""Steadiness check: two sets of runs per workload, compared metric by metric.

    python3 bench/steady.py

Runs bench/run.py untraced for every workload in BENCHMARK.json, in two sets
of ten runs, one process at a time, with a new seed for every run (set s,
run k gets seed 1 + 10 s + k), workloads interleaved within a set.  For
every end-to-end metric it prints each set's median and quartiles
(statistics.quantiles, n=4), the spread (q3 - q1) / median as a share of
the metric's bound in BENCHMARK.json, and how much worse the second set's
median is than the first's, also against the bound.  It calls the benchmark
steady only if every run is correct with no failed operation, and every
spread and every worsening stays within its bound.  The raw results go to
bench/out/steady-<time>.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
RUNS = 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=False,
    )
    if proc.returncode:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(values: list[float]) -> tuple[float, float, float]:
    """(median, q1, q3); the middle quartile cut is the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    results = {w: [[] for _ in range(SETS)] for w in workloads}
    started = time.time()
    for s in range(SETS):
        for k in range(RUNS):
            for w in workloads:
                seed = 1 + s * RUNS + k
                results[w][s].append(run_once(w, seed, spec["run_seconds"]))
                print(f"# set {s + 1} run {k + 1} {w} seed {seed} done at {time.time() - started:.0f} s",
                      file=sys.stderr, flush=True)

    ok = True
    print(f"{'workload':8s} {'metric':13s} set {'median':>10s} {'q1':>10s} {'q3':>10s} "
          f"{'spread':>7s} {'/bound':>7s} {'worse':>7s} {'/bound':>7s}")
    for w in workloads:
        runs = [r for runs in results[w] for r in runs]
        if any(r["failed"] or not r["correct"] for r in runs):
            ok = False
            print(f"{w}: {sum(r['failed'] for r in runs)} failed operations, "
                  f"{sum(not r['correct'] for r in runs)} incorrect runs")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            first = None
            for s, runs in enumerate(results[w]):
                med, q1, q3 = summarize([r["metrics"][name]["value"] for r in runs])
                spread = (q3 - q1) / med
                if first is None:
                    first, worse = med, 0.0
                else:
                    worse = (med - first) / first if m["better"] == "lower" else (first - med) / first
                if spread > bound or worse > bound:
                    ok = False
                print(f"{w:8s} {name:13s} {s + 1:3d} {med:10.4g} {q1:10.4g} {q3:10.4g} "
                      f"{spread:7.3f} {spread / bound:7.2f} {worse:+7.3f} {worse / bound:+7.2f}")
    print(f"# {'steady' if ok else 'NOT steady'}: {SETS} sets x {RUNS} runs, {time.time() - started:.0f} s")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    (out / f"steady-{stamp}.json").write_text(json.dumps(results))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
