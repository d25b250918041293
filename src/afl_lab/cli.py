"""Command-line front end: gen, verify, sweep, fl, dl, orbital, selftest.

All machine output is JSON on stdout, rendered with sorted keys and fixed
separators so identical (command, seed) pairs produce byte-identical bytes
across runs and across parallelism settings; wall-clock timings therefore
stay out of reports unless --timings (verify, sweep) asks for them.
--pretty (gen, verify, sweep) appends a small human table after the JSON.

Exit codes: 0 all identities hold, 1 an identity failed (a finding),
2 bad input or a broken invariant.  AFL_LAB_SEED overrides --seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import engine, gf
from .dl import T_MAX, dl_fixed_points, galois_orbit_check
from .errors import VerifierError, InputError
from .forge import (
    N_MAX,
    instance_from_spec,
    parse_instance,
    parse_spec,
    random_coxeter_instance,
    require_dim,
    serialize_instance,
    signature_dim,
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


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _emit(obj, pretty_lines=None):
    print(_dump(obj))
    if pretty_lines:
        for line in pretty_lines:
            print(line)


@dataclass(frozen=True)
class SweepConfig:
    qs: tuple[int, ...]
    max_dim: int
    count: int
    seed: int
    signatures: tuple[str, ...]
    jobs: int
    out: str | None
    cross_check: bool = True


def _sweep_task(args) -> dict:
    q, spec, seed, cross_check = args
    inst = instance_from_spec(spec, q, seed)
    if inst.n % 2:
        report = engine.afl_verdict(inst, cross_check=cross_check).to_json()
        kind = "afl"
    else:
        report = engine.fl_report(inst)
        kind = "fl"
    report["kind"] = kind
    report["q"] = q
    report["spec"] = spec
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
            parsed = parse_spec(spec)
            dim = parsed if isinstance(parsed, int) else signature_dim(parsed)
            if dim <= config.max_dim:
                grid.append((q, spec))
    if not grid:
        raise InputError("no signatures satisfy the dimension guard")
    tasks = [
        (grid[i % len(grid)][0], grid[i % len(grid)][1], config.seed + i, config.cross_check)
        for i in range(config.count)
    ]
    workers = pool_size(config.jobs, len(tasks), os.cpu_count())
    if workers > 1:
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


def _resolve_seed(args) -> int:
    env = os.environ.get("AFL_LAB_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise InputError("AFL_LAB_SEED must be an integer") from exc
    return args.seed


def _load_instance(args):
    if getattr(args, "infile", None):
        with open(args.infile, "r", encoding="utf-8") as fh:
            # ValueError covers bad JSON, bytes that are not UTF-8 and integer
            # literals past the int-to-str digit limit; RecursionError, nesting
            try:
                data = json.load(fh)
            except (ValueError, RecursionError) as exc:
                raise InputError(f"schema: not valid JSON ({exc})") from exc
        return parse_instance(data)
    if getattr(args, "sig", None):
        return instance_from_spec(args.sig, args.q, _resolve_seed(args))
    raise InputError("provide --in FILE or --sig SPEC")


def cmd_gen(args) -> int:
    seed = _resolve_seed(args)
    if args.coxeter:
        require_dim(args.n, "--n")
        inst = random_coxeter_instance(args.q, args.n, seed)
    else:
        if not args.sig:
            raise InputError("gen needs --sig or --coxeter with --n")
        inst = instance_from_spec(args.sig, args.q, seed)
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
    inst = _load_instance(args)
    if inst.n % 2:
        report = engine.afl_verdict(inst, cross_check=not args.no_cross_check)
        payload = report.to_json()
        checks = [(c.name, c.ok, c.detail) for c in report.checks]
    else:
        payload = engine.fl_report(inst)
        ok = payload["verdict"] == "PASS"
        checks = [("counting_identity", ok, f"lhs={payload['lhs']} rhs={payload['rhs']}")]
    if args.timings:
        payload["timings"] = {"wall_s": round(time.perf_counter() - started, 6)}
    pretty = None
    if args.pretty:
        pretty = [f"# {name}: {'ok' if ok else 'FAIL'} ({detail})" for name, ok, detail in checks]
    _emit(payload, pretty)
    return 0 if payload["verdict"] == "PASS" else 1


def cmd_sweep(args) -> int:
    try:
        qs = tuple(int(q) for q in args.q.split(","))
    except ValueError as exc:
        raise InputError(f"--q must be comma-joined integers, got {args.q!r}") from exc
    config = SweepConfig(
        qs=qs,
        max_dim=args.max_dim,
        count=args.count,
        seed=_resolve_seed(args),
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


def cmd_fl(args) -> int:
    inst = _load_instance(args)
    payload = engine.fl_report(inst)
    _emit(payload)
    return 0 if payload["verdict"] == "PASS" else 1


def cmd_dl(args) -> int:
    seed = _resolve_seed(args)
    if args.t > T_MAX:
        raise InputError(f"--t must be at most {T_MAX}, got {args.t}")
    inst = random_coxeter_instance(args.q, args.t, seed)
    records = dl_fixed_points(inst.space, inst.g, seed=seed)
    transitive = galois_orbit_check(records)
    payload = {
        "t": args.t,
        "q": args.q,
        "eigenvalue_orbit": [list(r.eigenvalue.coeffs) for r in records],
        "count": len(records),
        "galois_transitive": transitive,
        "seed": seed,
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


def cmd_selftest(args) -> int:
    seed = _resolve_seed(args)
    checks = []

    def run(name, fn):
        try:
            ok, detail = fn()
        except VerifierError as exc:
            ok, detail = False, str(exc)
        checks.append({"name": name, "ok": ok, "detail": detail})

    def afl_case(spec, q):
        def body():
            rep = engine.afl_verdict(instance_from_spec(spec, q, seed))
            return rep.verdict == "PASS", f"A={rep.analytic} G={rep.geometric.total}"

        return body

    run("afl_dim1", afl_case("sp:1:1", 3))
    run("afl_sp13", afl_case("sp:1:3", 3))
    run("afl_empty", afl_case("sp:1:1,sp:1:1,sp:1:1", 3))
    run("fl_cp11", lambda: (lambda l, r: (l == r, f"lhs={l} rhs={r}"))(*engine.fl_check(instance_from_spec("cp:1:1", 3, seed))))

    def dl_case():
        inst = random_coxeter_instance(3, 3, seed)
        recs = dl_fixed_points(inst.space, inst.g, seed=seed)
        return len(recs) == 3 and galois_orbit_check(recs), f"count={len(recs)}"

    run("dl_t3", dl_case)

    def determinism_case():
        a = _dump(serialize_instance(instance_from_spec("cp:1:2,sp:1:1", 5, seed)))
        b = _dump(serialize_instance(instance_from_spec("cp:1:2,sp:1:1", 5, seed)))
        return a == b, "same seed reproduces the same instance"

    run("determinism", determinism_case)
    ok = all(c["ok"] for c in checks)
    _emit({"checks": checks, "ok": ok})
    return 0 if ok else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="afl-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_q=True):
        if with_q:
            p.add_argument("--q", type=int, default=3, help="odd prime residue size")
        p.add_argument("--seed", type=int, default=0)

    p_gen = sub.add_parser("gen", help="generate a certified instance")
    common(p_gen)
    p_gen.add_argument("--pretty", action="store_true")
    p_gen.add_argument("--sig", help="signature, e.g. 'cp:1:2,sp:1:1'")
    p_gen.add_argument("--coxeter", action="store_true")
    p_gen.add_argument("--n", type=int, default=3, help=f"dimension for --coxeter, at most {N_MAX}")
    p_gen.add_argument("--out")
    p_gen.set_defaults(func=cmd_gen)

    p_verify = sub.add_parser("verify", help="verify the identities on one instance")
    common(p_verify)
    p_verify.add_argument("--in", dest="infile", help="instance JSON file")
    p_verify.add_argument("--sig")
    p_verify.add_argument("--no-cross-check", action="store_true")
    p_verify.add_argument("--pretty", action="store_true")
    p_verify.add_argument("--timings", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="seeded sweep over a signature grid")
    p_sweep.add_argument("--q", default="3,5", help="comma-joined odd primes")
    p_sweep.add_argument("--max-dim", type=int, default=9)
    p_sweep.add_argument("--count", type=int, required=True, help=f"instances, at most {COUNT_MAX}")
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--signatures", help="semicolon-joined signature specs")
    p_sweep.add_argument("--jobs", type=int, default=1, help="worker processes, at most the CPUs and the tasks")
    p_sweep.add_argument("--out", help="write full reports to this file")
    p_sweep.add_argument("--no-cross-check", action="store_true")
    p_sweep.add_argument("--pretty", action="store_true")
    p_sweep.add_argument("--timings", action="store_true")
    p_sweep.set_defaults(func=cmd_sweep)

    p_fl = sub.add_parser("fl", help="even-dimensional counting identity")
    common(p_fl)
    p_fl.add_argument("--in", dest="infile")
    p_fl.add_argument("--sig")
    p_fl.set_defaults(func=cmd_fl)

    p_dl = sub.add_parser("dl", help="eigenline count for a Coxeter-torus element")
    common(p_dl)
    p_dl.add_argument("--t", type=int, default=3, help=f"odd dimension, at most {T_MAX}")
    p_dl.set_defaults(func=cmd_dl)

    p_orb = sub.add_parser("orbital", help="orbital polynomial of an instance")
    common(p_orb)
    p_orb.add_argument("--in", dest="infile")
    p_orb.add_argument("--sig")
    p_orb.add_argument("--ell", type=int, default=0, help="external ell(gamma) shift")
    p_orb.set_defaults(func=cmd_orbital)

    p_self = sub.add_parser("selftest", help="small fixed verification battery")
    common(p_self, with_q=False)
    p_self.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except VerifierError as exc:
        print(_dump({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 2
    except OSError as exc:
        print(_dump({"error": "OSError", "message": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
