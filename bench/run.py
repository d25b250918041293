"""afl-lab benchmark: three fixed-work workloads, checked against an oracle.

    python3 bench/run.py --workload sweep|lattice|dl --seed N --seconds S --trace 0|1

Each workload is a fixed list of operations made from the seed (operation i
gets seed N + i, so no input repeats within a run), sized from --seconds by
the nominal round cost measured on a 2-vCPU host, and every run executes all
of them.  Operations run one after another in this process, each timed on
its own; every output is checked against oracle.py, outside the timed
region.  An operation that raises is a failure of the run, like an output
that fails its check: the result then says correct: false and the exit
code is 1.

--trace 0 prints the end-to-end metrics: ops_per_s, op_s.p50, setup_s (the
median of fresh interpreters that import afl_lab and build the workload's
field levels, spread through the run) and peak_rss_mib.  --trace 1 runs the
same operations under tracer.Tracer and prints the per-layer metrics; its
spans go to bench/out/.  Every time is in reference-host seconds: operation
times are scaled by hostspeed.HostSpeed, cold starts by a fixed reference
child (hostspeed.cold_ref_s); the raw wall-clock figures go to stderr.  The
last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from hostspeed import COLD_REF_S, HostSpeed, child_s, cold_ref_s  # noqa: E402
from oracle import check_afl_report, check_dl_payload, defining_poly, expected_counts  # noqa: E402

DEFAULT_SEED = 20240
COLD_STARTS = 20

# the acceptance sweep's grid, in `afl-lab sweep --q 3,5` task order
SWEEP_QS = (3, 5)
# (q, signature) of the stored instances verified by `lattice`, one round
# (two below the four middle ones, two above, so the median falls among the middle ones)
LATTICE_ROUND = (
    (3, "cp:1:2,cp:1:1,sp:1:3"),
    (3, "cp:1:2,cp:1:1,sp:1:1"),
    (3, "cp:1:2,sp:1:3"),
    (3, "cp:1:2,cp:1:1,sp:1:1"),
    (3, "cp:1:2,cp:1:1,sp:1:1"),
    (3, "cp:1:2,sp:1:3"),
    (3, "cp:1:2,cp:1:1,sp:1:1"),
    (5, "cp:1:1,cp:1:1,cp:1:1,sp:1:1"),
)
DL_Q = 3
DL_ROUND = (7, 9, 9)
# seconds one round takes untraced on the reference host
NOMINAL_ROUND_S = {"sweep": 3.5, "lattice": 30.0, "dl": 6.2}


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def import_afl_lab():
    """Import afl_lab from this checkout's src/, never from anywhere else."""
    if not (SRC / "afl_lab" / "__init__.py").is_file():
        raise SystemExit(f"bench: no afl_lab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import afl_lab

    if Path(afl_lab.__file__).resolve().parent != SRC / "afl_lab":
        raise SystemExit(f"bench: imported afl_lab from {afl_lab.__file__}, not {SRC}")
    return afl_lab


@dataclass
class Op:
    label: str
    run: Callable[[], str]  # the timed call into afl-lab; returns the rendered output
    check: Callable[[str], list[str]]  # oracle check of that output
    expect: dict[str, int] = field(default_factory=dict)  # traced counters it must add


@dataclass
class Workload:
    ops: list[Op]
    levels: list[tuple[int, int]]  # (p, max tower level) the operations use


def _afl_expect(signature: str) -> dict[str, int]:
    e = expected_counts(signature)
    return {
        "linalg.lattice_subspaces": e.divisors,
        "engine.strata": e.isotropic_strata,
        "engine.contributing_strata": e.contributing_strata,
        "dl.eigenlines": e.contributing_strata * (e.stratum_type or 0),
    }


def _max_level(signature: str) -> int:
    return max(2, 2 * max(int(block.split(":")[1]) for block in signature.split(",")))


def sweep_workload(seed: int, rounds: int) -> Workload:
    """`afl-lab sweep --jobs 1 --q 3,5 --seed SEED`, one task per operation."""
    from afl_lab import cli

    grid = [(q, spec) for q in SWEEP_QS for spec in cli.DEFAULT_SIGNATURES]
    ops = []
    for i in range(rounds * len(grid)):
        q, spec = grid[i % len(grid)]

        def run(q=q, spec=spec, s=seed + i):
            config = cli.SweepConfig(qs=(q,), max_dim=9, count=1, seed=s, signatures=(spec,),
                                     jobs=1, out=None)
            summary, reports = cli.run_sweep(config)
            return _dump({"summary": summary, "reports": reports})

        def check(text, q=q, spec=spec):
            data = json.loads(text)
            bad = check_afl_report(data["reports"][0], q, spec)
            if data["summary"]["passes"] != 1:
                bad.append("summary does not count one pass")
            return bad

        ops.append(Op(f"{q}:{spec}", run, check, _afl_expect(spec)))
    levels = [(q, max(_max_level(spec) for spec in cli.DEFAULT_SIGNATURES)) for q in SWEEP_QS]
    return Workload(ops, levels)


def lattice_workload(seed: int, rounds: int) -> Workload:
    """`afl-lab verify --in FILE` on instances `afl-lab gen` made before timing."""
    from afl_lab import engine, forge

    ops = []
    for i in range(rounds * len(LATTICE_ROUND)):
        q, spec = LATTICE_ROUND[i % len(LATTICE_ROUND)]
        stored = _dump(forge.serialize_instance(forge.instance_from_spec(spec, q, seed + i)))

        def run(stored=stored):
            inst = forge.parse_instance(json.loads(stored))
            return _dump(engine.afl_verdict(inst, cross_check=True).to_json())

        ops.append(Op(f"{q}:{spec}", run, lambda text, q=q, spec=spec: check_afl_report(json.loads(text), q, spec),
                      _afl_expect(spec)))
    levels = sorted({(q, _max_level(spec)) for q, spec in LATTICE_ROUND})
    return Workload(ops, levels)


def dl_workload(seed: int, rounds: int) -> Workload:
    """`afl-lab dl --q 3 --t T --seed S`: Coxeter instance, eigenlines, orbit."""
    from afl_lab import dl, forge

    ops = []
    for i in range(rounds * len(DL_ROUND)):
        t = DL_ROUND[i % len(DL_ROUND)]

        def run(t=t, s=seed + i):
            inst = forge.random_coxeter_instance(DL_Q, t, s)
            records = dl.dl_fixed_points(inst.space, inst.g, seed=s)
            transitive = dl.galois_orbit_check(records)
            return _dump({
                "t": t,
                "q": DL_Q,
                "eigenvalue_orbit": [list(r.eigenvalue.coeffs) for r in records],
                "count": len(records),
                "galois_transitive": transitive,
                "seed": s,
            })

        ops.append(Op(f"t{t}", run, lambda text, t=t: check_dl_payload(json.loads(text), DL_Q, t),
                      {"dl.eigenlines": t}))
    for t in set(DL_ROUND):
        defining_poly(DL_Q, 2 * t)  # the oracle's own field, built before timing
    return Workload(ops, [(DL_Q, 2 * max(DL_ROUND))])


WORKLOADS = {"sweep": sweep_workload, "lattice": lattice_workload, "dl": dl_workload}


def cold_start(levels: list[tuple[int, int]]) -> tuple[float, float]:
    """A fresh interpreter importing afl_lab and building the towers.

    Returns its wall time and that time in reference-host seconds: over the
    wall time of the reference child (hostspeed.cold_ref_s) started right
    after it, times COLD_REF_S."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import afl_lab; from afl_lab import gf\n"
        "for pl in sys.argv[2].split(','): gf.make_tower(*map(int, pl.split(':')))"
    )
    spec = ",".join(f"{p}:{lv}" for p, lv in levels)
    ours = child_s(code, str(SRC), spec)
    return ours, ours / cold_ref_s() * COLD_REF_S


def run_ops(workload: Workload, cold: Callable[[], tuple[float, float]] | None = None, tracer=None):
    """Run every operation in order while HostSpeed samples the probe.

    Returns (raw op times, scaled op times, failed, problems, raw cold
    starts, scaled cold starts); a scaled op time is the raw one times
    HostSpeed.scale over its interval.  COLD_STARTS calls of cold() are
    spread evenly between the operations, with the sampler paused."""
    ops = workload.ops
    spans, colds, problems = [], [], []
    failed = 0
    with HostSpeed() as speed:
        for i, op in enumerate(ops):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = op.run()
                else:
                    with tracer.operation(i, op.label):
                        out = op.run()
            except Exception as exc:  # counted and reported, then the run goes on
                failed += 1
                problems.append(f"op {i} {op.label} raised {type(exc).__name__}: {exc}")
            else:
                spans.append((t0, time.perf_counter()))
                problems += [f"op {i} {op.label}: {p}" for p in op.check(out)]
            if cold is not None:
                with speed.paused():
                    for _ in range((i + 1) * COLD_STARTS // len(ops) - i * COLD_STARTS // len(ops)):
                        colds.append(cold())
    raw = [t1 - t0 for t0, t1 in spans]
    scaled = [(t1 - t0) * speed.scale(t0, t1) for t0, t1 in spans]
    return raw, scaled, failed, problems, [c[0] for c in colds], [c[1] for c in colds]


def _rate(times: list[float]) -> float:
    return len(times) / sum(times) if times else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    import_afl_lab()

    rounds = max(1, round(args.seconds / NOMINAL_ROUND_S[args.workload]))
    workload = WORKLOADS[args.workload](args.seed, rounds)
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()
        raw, times, failed, problems, _, _ = run_ops(workload, tracer=tracer)
        tracer.uninstall()
        tracer.write_spans(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
        metrics = tracer.metrics()
        factor = sum(times) / sum(raw) if raw else 1.0
        for entry in metrics.values():
            if entry["unit"] == "s":
                entry["value"] *= factor  # into reference-host seconds, like the timings
        metrics["trace.ops_per_s"] = {"value": _rate(times), "unit": "1/s"}
        if not failed:
            for name in workload.ops[0].expect:
                want = sum(op.expect.get(name, 0) for op in workload.ops)
                if metrics[name]["value"] != want:
                    problems.append(f"traced {name} = {metrics[name]['value']}, oracle says {want}")
    else:
        raw, times, failed, problems, cold_raw, colds = run_ops(workload, lambda: cold_start(workload.levels))
        if raw:
            print(f"bench: raw wall clock: {_rate(raw):.4g} ops/s, op p50 {statistics.median(raw):.4g} s, "
                  f"setup {statistics.median(cold_raw):.4g} s", file=sys.stderr)
        metrics = {
            "ops_per_s": {"value": _rate(times), "unit": "1/s"},
            "op_s.p50": {"value": statistics.median(times) if times else 0.0, "unit": "s"},
            "setup_s": {"value": statistics.median(colds), "unit": "s"},
            "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                             "unit": "MiB"},
        }
    for line in problems:
        print(f"bench: check failed: {line}", file=sys.stderr)
    result = {"correct": not problems, "attempted": len(workload.ops), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
