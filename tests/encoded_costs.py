"""Re-measure the costs that ENCODED in tests/test_src_guard.py names: what
the benchmark's in-process rounds lose when one kernel's loop on encodings
is taken away and that kernel runs its FieldElem loop instead.

    python3 tests/encoded_costs.py [--processes 11] [--passes 5]

A stand-in for gf.index_rows answers None to the calls of one kernel alone
(matched on the caller's code object, nested functions included), as
gf.index_rows does above gf.TABLE_CAP, and passes every other call on, so
the other kernels keep their encodings.  The unchanged side runs the same
stand-in with no kernel, so the frame lookup costs both sides alike.

Each kernel runs in --processes fresh processes (the kernels take turns,
in an order rotated per round).  A process builds bench/run.py's three
workloads at seed 20240 (sweep 6 rounds = 120 tasks, lattice 1 round = 8
verdicts, dl 1 round = 3 counts) and runs each one unchanged pass to warm
the caches, then --passes passes per side, the sides alternating pass by
pass; the warm-up pass and the first kernel pass are checked against
bench/oracle.py, and each side keeps its fastest pass.  Per kernel and
workload it prints the median over the processes of kernel / unchanged - 1,
then the quartile spread (q3 - q1) / median of all the unchanged passes
kept, and the ENCODED strings.  Stdlib only; pytest does not collect it.
"""

from __future__ import annotations

import argparse
import inspect
import json
import statistics
import subprocess
import sys
import time
from importlib import import_module
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ROUNDS = {"sweep": 6, "lattice": 1, "dl": 1}
SEED = 20240


def kernel_codes(name: str) -> set:
    """The code objects of the src function module.qualname and of every
    function nested in it."""
    module, *path = name.split(".")
    obj = import_module(f"afl_lab.{module}")
    for attr in path:
        obj = getattr(obj, attr)
    codes, todo = set(), [inspect.unwrap(obj).__code__]
    while todo:
        code = todo.pop()
        codes.add(code)
        todo += [c for c in code.co_consts if inspect.iscode(c)]
    return codes


def child(kernel: str, passes: int) -> dict:
    """Per workload, the fastest of `passes` passes on each side, the sides
    alternating pass by pass after one unchanged warm-up pass."""
    sys.path.insert(0, str(ROOT / "bench"))
    import run  # bench/run.py: the workload builders, unchanged

    run.import_afl_lab()
    from afl_lab import gf

    codes = kernel_codes(kernel)
    real = gf.index_rows
    target = set()  # the code objects answered None: empty on the unchanged side

    def index_rows(*vectors):
        return None if sys._getframe(1).f_code in target else real(*vectors)

    gf.index_rows = index_rows
    best, problems = {}, []
    for workload, rounds in ROUNDS.items():
        ops = run.WORKLOADS[workload](SEED, rounds).ops
        times = {"unchanged": [], "kernel": []}
        for k in range(2 * passes + 1):
            side = "kernel" if k % 2 else "unchanged"
            target = codes if k % 2 else set()
            t0 = time.perf_counter()
            outputs = [op.run() for op in ops]
            elapsed = time.perf_counter() - t0
            if k < 2:  # the warm-up pass and the first kernel pass
                problems += [f"{workload} {op.label}: {p}" for op, out in zip(ops, outputs) for p in op.check(out)]
            if k:
                times[side].append(elapsed)
        best[workload] = {side: min(values) for side, values in times.items()}
    return {"best_s": best, "problems": problems}


def run_child(kernel: str, passes: int) -> dict:
    proc = subprocess.run(
        [sys.executable, __file__, "--child", kernel, "--passes", str(passes)],
        capture_output=True, text=True, check=False,
    )
    if proc.returncode:
        raise SystemExit(f"{kernel}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout)
    if result["problems"]:
        raise SystemExit(f"{kernel}: outputs fail the oracle: {result['problems'][:3]}")
    return result["best_s"]


def percent(x: float) -> str:
    return f"{round(100 * x):+d} %"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--processes", type=int, default=11, help="fresh processes per kernel")
    parser.add_argument("--passes", type=int, default=5, help="passes per side and workload; the fastest counts")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(child(args.child, args.passes)))
        return 0
    if args.processes < 9 or args.passes < 1:
        parser.error("--processes must be at least 9 and --passes at least 1")

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from test_src_guard import ENCODED

    kernels = sorted(ENCODED)
    runs = {kernel: [] for kernel in kernels}
    for k in range(args.processes):
        shift = k % len(kernels)
        for kernel in kernels[shift:] + kernels[:shift]:
            runs[kernel].append(run_child(kernel, args.passes))
        print(f"# round {k + 1} of {args.processes} done", file=sys.stderr)

    print(f"{'kernel':28}" + "".join(f"{w:>10}" for w in ROUNDS) + "   (median loss)")
    strings = {}
    base = {w: [] for w in ROUNDS}
    for kernel in kernels:
        loss = {}
        for w in ROUNDS:
            pairs = [r[w] for r in runs[kernel]]
            loss[w] = statistics.median(pair["kernel"] / pair["unchanged"] for pair in pairs) - 1
            base[w] += [pair["unchanged"] for pair in pairs]
        print(f"{kernel:28}" + "".join(f"{percent(loss[w]):>10}" for w in ROUNDS))
        strings[kernel] = ", ".join(f"{w} {percent(loss[w])}" for w in sorted(ROUNDS, key=lambda w: -loss[w]))
    spread = {}
    for w, values in base.items():
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread[w] = f"{round(100 * (q3 - q1) / med)} %"
    print(f"{'unchanged (q3 - q1) / median':28}" + "".join(f"{spread[w]:>10}" for w in ROUNDS))
    print("ENCODED = {")
    for kernel, text in strings.items():
        print(f'    "{kernel}": "{text}",')
    print("}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
