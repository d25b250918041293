"""Command-line front end: gen, verify, sweep, dl, orbital.  verify checks
the AFL identity on odd n and the counting identity on even n.

All machine output is JSON on stdout, rendered with sorted keys and fixed
separators so identical (command, seed) pairs produce byte-identical bytes
across runs and across parallelism settings; wall-clock timings therefore
stay out of reports unless --timings (verify, sweep) asks for them.
--pretty (gen, verify, sweep) appends a small human table after the JSON.

Exit codes: 0 all identities hold, 1 an identity failed (a finding),
2 bad input or a broken invariant.  Stdout depends only on argv and the
--in file; no environment variable enters a report.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import engine, gf
from .dl import T_MAX, dl_fixed_points, galois_orbit_check
from .errors import InputError, Record, VerifierError
from .forge import (
    N_MAX,
    instance_from_spec,
    parse_instance,
    parse_spec,
    random_coxeter_instance,
    serialize_instance,
    signature_dim,
    spec_number,
)

DEFAULT_SIGNATURES = (
    "sp:1:1",
    "sp:1:3",
    "sp:3:1",
    "sp:1:5",
    "cp:1:1,sp:1:1",
    "cp:1:2,sp:1:1",
    "cp:2:1,sp:1:1",
    "cp:1:1,sp:1:3",
    "sp:1:1,sp:1:2",
    "sp:1:1,sp:1:1,sp:1:1",
)

# Largest sweep count: every task and full report is held at once (README)
COUNT_MAX = 10_000
# Largest --in file: an instance at n = N_MAX and q = P_MAX takes 0.32 MB as
# gen writes it and 2.6 MB as JSON indented by 8 (README)
IN_BYTES_MAX = 4 << 20


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _emit(obj, pretty_lines=None):
    print(_dump(obj))
    if pretty_lines:
        for line in pretty_lines:
            print(line)


class SweepConfig(Record):
    __slots__ = _fields = ("qs", "max_dim", "count", "seed", "signatures", "jobs", "out", "cross_check")
    _defaults = {"cross_check": True}


def _report(inst, cross_check=True) -> tuple[str, dict]:
    """The one verdict dispatch: the AFL verdict on odd n, the counting
    identity on even n, as (kind, JSON payload)."""
    if inst.n % 2:
        return "afl", engine.afl_verdict(inst, cross_check=cross_check).to_json()
    return "fl", engine.fl_report(inst)


def _sweep_task(args) -> dict:
    q, spec, seed, cross_check = args
    kind, report = _report(instance_from_spec(spec, q, seed), cross_check)
    report.update(kind=kind, q=q, spec=spec)
    return report


def pool_size(jobs: int, tasks: int, cpus: int | None) -> int:
    """Worker processes for a sweep: a fork pool starts every worker up
    front, so never more than the CPUs (1 if unknown) or the tasks."""
    return max(1, min(jobs, cpus or 1, tasks))


def run_sweep(config: SweepConfig) -> tuple[dict, list[dict]]:
    """Deterministic seeded sweep; reports merge in task order regardless of
    the parallelism degree."""
    if config.count < 1:
        raise InputError("sweep count must be >= 1")
    if config.count > COUNT_MAX:
        raise InputError(f"sweep count must be at most {COUNT_MAX}, got {config.count}")
    if config.jobs < 1:
        raise InputError("--jobs must be >= 1")
    grid = []
    for q in config.qs:
        for spec in config.signatures:
            if signature_dim(parse_spec(spec)) <= config.max_dim:
                grid.append((q, spec))
    if not grid:
        raise InputError("no signatures satisfy the dimension guard")
    tasks = [
        (grid[i % len(grid)][0], grid[i % len(grid)][1], config.seed + i, config.cross_check)
        for i in range(config.count)
    ]
    workers = pool_size(config.jobs, len(tasks), os.cpu_count())
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pool needs multiprocessing

        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_sweep_task, tasks, chunksize=max(1, len(tasks) // (4 * workers))))
    else:
        reports = [_sweep_task(t) for t in tasks]
    findings = []
    passes = 0
    results = []
    for idx, rep in enumerate(reports):
        ok = rep["verdict"] == "PASS"
        passes += ok
        digest = {
            "index": idx,
            "q": rep["q"],
            "spec": rep["spec"],
            "seed": rep["seed"],
            "kind": rep["kind"],
            "verdict": rep["verdict"],
        }
        if rep["kind"] == "afl":
            digest.update({"A": rep["A"], "G": rep["G"], "support": rep["support"]})
        else:
            digest.update({"lhs": rep["lhs"], "rhs": rep["rhs"]})
        results.append(digest)
        if not ok:
            finding = dict(digest)
            if rep["kind"] == "afl":
                finding["failed_checks"] = [c["name"] for c in rep["checks"] if not c["ok"]]
            findings.append(finding)
    summary = {
        "config": {
            "qs": list(config.qs),
            "max_dim": config.max_dim,
            "count": config.count,
            "seed": config.seed,
            "signatures": list(config.signatures),
            "cross_check": config.cross_check,
        },
        "instances": len(reports),
        "passes": passes,
        "fails": len(reports) - passes,
        "findings": findings,
        "results": results,
    }
    return summary, reports


# ---------------------------------------------------------------------------
# subcommands


def _load_instance(args):
    if (args.infile is None) == (args.sig is None):
        raise InputError("give exactly one instance source: --in FILE or --sig SPEC")
    if args.sig is not None:
        return instance_from_spec(args.sig, 3 if args.q is None else args.q, args.seed or 0)
    if args.q is not None or args.seed is not None:
        raise InputError("--q and --seed build a --sig instance; an --in file carries its own")
    with open(args.infile, "rb") as fh:
        raw = fh.read(IN_BYTES_MAX + 1)
    if len(raw) > IN_BYTES_MAX:
        raise InputError(f"--in file is larger than {IN_BYTES_MAX} bytes")
    # ValueError covers bad JSON, bytes that are not UTF-8 and integer
    # literals past the int-to-str digit limit; RecursionError, nesting
    try:
        data = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise InputError(f"schema: not valid JSON ({exc})") from exc
    return parse_instance(data)


def cmd_gen(args) -> int:
    inst = instance_from_spec(args.sig, args.q, args.seed)
    payload = serialize_instance(inst)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(_dump(payload) + "\n")
    _emit(payload, _pretty_instance(inst) if args.pretty else None)
    return 0


def _pretty_instance(inst):
    return [
        f"# instance over F_{inst.p}^2, dim {inst.n}, signature {','.join(inst.signature)}",
        f"# factors: " + " * ".join(f"deg{f.degree}^{a}" for f, a in inst.fact.factors),
    ]


def cmd_verify(args) -> int:
    started = time.perf_counter()
    kind, payload = _report(_load_instance(args), not args.no_cross_check)
    if kind == "afl":
        checks = [(c["name"], c["ok"], c["detail"]) for c in payload["checks"]]
    else:
        checks = [("counting_identity", payload["verdict"] == "PASS", f"lhs={payload['lhs']} rhs={payload['rhs']}")]
    if args.timings:
        payload["timings"] = {"wall_s": round(time.perf_counter() - started, 6)}
    pretty = None
    if args.pretty:
        pretty = [f"# {name}: {'ok' if ok else 'FAIL'} ({detail})" for name, ok, detail in checks]
    _emit(payload, pretty)
    return 0 if payload["verdict"] == "PASS" else 1


def cmd_sweep(args) -> int:
    config = SweepConfig(
        qs=tuple(spec_number(q, "--q") for q in args.q.split(",")),
        max_dim=args.max_dim,
        count=args.count,
        seed=args.seed,
        signatures=DEFAULT_SIGNATURES if args.signatures is None else tuple(args.signatures.split(";")),
        jobs=args.jobs,
        out=args.out,
        cross_check=not args.no_cross_check,
    )
    for q in config.qs:
        gf.require_odd_prime(q, "q")
    started = time.perf_counter()
    summary, reports = run_sweep(config)
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(_dump({"summary": summary, "reports": reports}) + "\n")
    if args.timings:
        print(f"# wall {time.perf_counter() - started:.2f}s", file=sys.stderr)
    pretty = None
    if args.pretty:
        pretty = [
            f"# {summary['instances']} instances: {summary['passes']} pass, {summary['fails']} fail",
        ] + [f"# finding: {f}" for f in summary["findings"]]
    _emit(summary, pretty)
    return 0 if not summary["fails"] else 1


def cmd_dl(args) -> int:
    if args.t > T_MAX:
        raise InputError(f"--t must be at most {T_MAX}, got {args.t}")
    inst = random_coxeter_instance(args.q, args.t, args.seed)
    records = dl_fixed_points(inst.space, inst.g, seed=args.seed)
    transitive = galois_orbit_check(records)
    payload = {
        "t": args.t,
        "q": args.q,
        "eigenvalue_orbit": [list(r.eigenvalue.coeffs) for r in records],
        "count": len(records),
        "galois_transitive": transitive,
        "seed": args.seed,
    }
    _emit(payload)
    return 0 if len(records) == args.t and transitive else 1


def cmd_orbital(args) -> int:
    inst = _load_instance(args)
    coeffs = engine.orbital_polynomial(inst, args.ell)
    payload = {
        "ell_gamma": args.ell,
        "coeffs": {str(e): c for e, c in coeffs.items()},
        "pretty": engine.orbital_pretty(coeffs),
        "value_at_1": engine.orbital_value_at_one(coeffs),
        "derivative_at_1": engine.orbital_derivative_at_one(coeffs),
        "seed": inst.seed,
    }
    _emit(payload)
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="afl-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def number(flag):
        # every integer on argv is read like a spec number
        return lambda text: spec_number(text, flag)

    def common(p):
        p.add_argument("--q", type=number("--q"), default=3, help="odd prime residue size")
        p.add_argument("--seed", type=number("--seed"), default=0)

    p_gen = sub.add_parser("gen", help="generate a certified instance")
    common(p_gen)
    p_gen.add_argument("--pretty", action="store_true")
    p_gen.add_argument("--sig", required=True, help=f"spec, e.g. 'cp:1:2,sp:1:1' or 'coxeter:<n>', n at most {N_MAX}")
    p_gen.add_argument("--out")
    p_gen.set_defaults(func=cmd_gen)

    def instance_source(p):
        # None marks a flag as given, so that _load_instance refuses it beside --in
        p.add_argument("--q", type=number("--q"), help="odd prime residue size for --sig (default 3)")
        p.add_argument("--seed", type=number("--seed"), help="seed for --sig (default 0)")
        p.add_argument("--in", dest="infile", help="instance JSON file")
        p.add_argument("--sig")

    p_verify = sub.add_parser("verify", help="verify the identities on one instance")
    instance_source(p_verify)
    p_verify.add_argument("--no-cross-check", action="store_true")
    p_verify.add_argument("--pretty", action="store_true")
    p_verify.add_argument("--timings", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="seeded sweep over a signature grid")
    p_sweep.add_argument("--q", default="3,5", help="comma-joined odd primes")
    p_sweep.add_argument("--max-dim", type=number("--max-dim"), default=9)
    p_sweep.add_argument("--count", type=number("--count"), required=True, help=f"instances, at most {COUNT_MAX}")
    p_sweep.add_argument("--seed", type=number("--seed"), default=0)
    p_sweep.add_argument("--signatures", help="semicolon-joined signature specs")
    p_sweep.add_argument("--jobs", type=number("--jobs"), default=1, help="worker processes, at most the CPUs and the tasks")
    p_sweep.add_argument("--out", help="write full reports to this file")
    p_sweep.add_argument("--no-cross-check", action="store_true")
    p_sweep.add_argument("--pretty", action="store_true")
    p_sweep.add_argument("--timings", action="store_true")
    p_sweep.set_defaults(func=cmd_sweep)

    p_dl = sub.add_parser("dl", help="eigenline count for a Coxeter-torus element")
    common(p_dl)
    p_dl.add_argument("--t", type=number("--t"), default=3, help=f"odd dimension, at most {T_MAX}")
    p_dl.set_defaults(func=cmd_dl)

    p_orb = sub.add_parser("orbital", help="orbital polynomial of an instance")
    instance_source(p_orb)
    p_orb.add_argument("--ell", type=number("--ell"), default=0, help="external ell(gamma) shift")
    p_orb.set_defaults(func=cmd_orbital)
    return parser


def main(argv=None) -> int:
    try:
        # a number argv refuses raises InputError while it is parsed
        args = build_parser().parse_args(argv)
        return args.func(args)
    except VerifierError as exc:
        print(_dump({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 2
    except OSError as exc:
        print(_dump({"error": "OSError", "message": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
