"""Opt-in layer tracer for the benchmark, installed from outside afl_lab.

Tracer.install() wraps afl-lab's public functions in every afl_lab module
that holds a reference to them (and the arithmetic methods on their
classes), so the program itself is unchanged.  Two kinds of wrapper exist:

* phase functions (forge builders, factor, the lattice walk, isotropy,
  subquotient, verdict, the eigenline counter, ...) record a span with its
  parent span and operation, kept in memory and written out at the end;
* kernels (matmul, rref, powmod) and field operations are only counted and,
  for kernels, timed in aggregate, since they run hundreds of thousands of
  times per run.

A metric ending in `_s` is the time spent in the outermost calls of that
name; a `.self_s` metric subtracts the phase spans nested directly inside,
so kernel time stays in the phase that called the kernel.

Run this file to trace one `afl-lab verify --q Q --sig SIG`:

    python3 bench/tracer.py --q 3 --sig cp:1:2,cp:1:2,sp:1:3
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

PHASES = {
    "forge.build": [("forge", "build_block_instance")],
    "forge.coxeter": [("forge", "random_coxeter_instance")],
    "forge.parse": [("forge", "parse_instance")],
    "forge.certify": [("forge", "certify_instance")],
    "poly.factor": [("poly", "factor")],
    "linalg.lattice": [("linalg", "invariant_subspaces")],
    "linalg.charpoly": [("linalg", "charpoly")],
    "linalg.regular": [("linalg", "is_regular")],
    "hermitian.isotropy": [("hermitian", "is_isotropic")],
    "hermitian.subquotient": [("hermitian", "induced_subquotient")],
    "hermitian.validate": [
        ("hermitian", "validate_space"),
        ("hermitian", "is_unitary"),
        ("hermitian", "validate_anti_involution"),
    ],
    "engine.verdict": [("engine", "afl_verdict")],
    "engine.geometric": [("engine", "geometric_count")],
    "engine.script_w": [("engine", "script_w")],
    "dl.count": [("dl", "dl_fixed_points")],
    "dl.orbit": [("dl", "galois_orbit_check")],
}

KERNELS = {
    "linalg.matmul": ("linalg", "Matrix.__matmul__"),
    "linalg.rref": ("linalg", "rref"),
    "poly.powmod": ("poly", "Poly.powmod"),
}

# counters read off a phase's result
RESULT_COUNTS = {
    "linalg.lattice": lambda r: {"linalg.lattice_subspaces": len(r)},
    "engine.geometric": lambda r: {
        "engine.strata": len(r.strata),
        "engine.contributing_strata": sum(1 for s in r.strata if s.fixed_count),
    },
    "dl.count": lambda r: {"dl.eigenlines": len(r)},
}

# (metric, unit, source): source is ("total"|"self"|"calls"|"count", name)
LAYER_METRICS = [
    ("gf.mul_calls.l2", "count", ("count", "gf.mul.l2")),
    ("gf.mul_calls.big", "count", ("count", "gf.mul.big")),
    ("gf.inverse_calls", "count", ("count", "gf.inverse")),
    ("linalg.lattice_s", "s", ("total", "linalg.lattice")),
    ("linalg.lattice_subspaces", "count", ("count", "linalg.lattice_subspaces")),
    ("linalg.matmul_s", "s", ("total", "linalg.matmul")),
    ("linalg.matmul_calls", "count", ("calls", "linalg.matmul")),
    ("linalg.rref_s", "s", ("total", "linalg.rref")),
    ("linalg.rref_calls", "count", ("calls", "linalg.rref")),
    ("linalg.charpoly_s", "s", ("total", "linalg.charpoly")),
    ("linalg.regular_s", "s", ("total", "linalg.regular")),
    ("poly.factor_s", "s", ("total", "poly.factor")),
    ("poly.factor_calls", "count", ("calls", "poly.factor")),
    ("poly.powmod_s", "s", ("total", "poly.powmod")),
    ("poly.powmod_calls", "count", ("calls", "poly.powmod")),
    ("hermitian.isotropy_s", "s", ("total", "hermitian.isotropy")),
    ("hermitian.isotropy_calls", "count", ("calls", "hermitian.isotropy")),
    ("hermitian.subquotient_s", "s", ("total", "hermitian.subquotient")),
    ("hermitian.subquotient_calls", "count", ("calls", "hermitian.subquotient")),
    ("hermitian.validate_s", "s", ("total", "hermitian.validate")),
    ("forge.build_s", "s", ("total", "forge.build")),
    ("forge.build.self_s", "s", ("self", "forge.build")),
    ("forge.coxeter_s", "s", ("total", "forge.coxeter")),
    ("forge.parse_s", "s", ("total", "forge.parse")),
    ("forge.certify_s", "s", ("total", "forge.certify")),
    ("forge.certify_calls", "count", ("calls", "forge.certify")),
    ("engine.verdict_s", "s", ("total", "engine.verdict")),
    ("engine.geometric.self_s", "s", ("self", "engine.geometric")),
    ("engine.script_w_calls", "count", ("calls", "engine.script_w")),
    ("engine.strata", "count", ("count", "engine.strata")),
    ("engine.contributing_strata", "count", ("count", "engine.contributing_strata")),
    ("dl.count_s", "s", ("total", "dl.count")),
    ("dl.count_calls", "count", ("calls", "dl.count")),
    ("dl.eigenlines", "count", ("count", "dl.eigenlines")),
    ("dl.orbit_s", "s", ("total", "dl.orbit")),
]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent id, name, start, end, op)
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._depth: Counter[str] = Counter()
        self._stack: list[list] = []  # open phase frames: [child seconds, span id]
        self._op = None
        self._ids = 0
        self._restore: list[tuple] = []

    def _new_id(self) -> int:
        self._ids += 1
        return self._ids

    # ----- wrappers ---------------------------------------------------------
    def _phase(self, name, fn):
        spans, total, self_s, calls, depth, stack = (
            self.spans, self.total, self.self_s, self.calls, self._depth, self._stack)
        counter = RESULT_COUNTS.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0.0, self._new_id()]
            stack.append(frame)
            depth[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                depth[name] -= 1
                d = t1 - t0
                if parent is not None:
                    parent[0] += d
                calls[name] += 1
                if not depth[name]:
                    total[name] += d
                self_s[name] += d - frame[0]
                spans.append((frame[1], parent[1] if parent else None, name, t0, t1, self._op))
            if counter is not None:
                self.counts.update(counter(result))
            return result

        return wrapper

    def _kernel(self, name, fn):
        total, calls, depth = self.total, self.calls, self._depth
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            depth[name] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                d = clock() - t0
                depth[name] -= 1
                calls[name] += 1
                if not depth[name]:
                    total[name] += d

        return wrapper

    def _field_ops(self, gf):
        counts = self.counts
        mul, inverse = gf.FieldElem.__mul__, gf.FieldElem.inverse

        def traced_mul(a, b):
            counts["gf.mul.big" if a.level > 2 else "gf.mul.l2"] += 1
            return mul(a, b)

        def traced_inverse(a):
            counts["gf.inverse"] += 1
            return inverse(a)

        return {"__mul__": traced_mul, "inverse": traced_inverse}

    # ----- installation -----------------------------------------------------
    def _replace(self, module_name, attr, make):
        modules = [m for k, m in sys.modules.items() if k == "afl_lab" or k.startswith("afl_lab.")]
        owner = sys.modules[f"afl_lab.{module_name}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, make(orig))
            self._restore.append((cls, meth, orig))
            return
        orig = getattr(owner, attr)
        wrapper = make(orig)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)
                    self._restore.append((mod, key, orig))

    def install(self) -> "Tracer":
        import afl_lab  # noqa: F401  (loads every module the wrappers patch)
        from afl_lab import gf

        for name, targets in PHASES.items():
            for module_name, attr in targets:
                self._replace(module_name, attr, lambda fn, n=name: self._phase(n, fn))
        for name, (module_name, attr) in KERNELS.items():
            self._replace(module_name, attr, lambda fn, n=name: self._kernel(n, fn))
        for meth, wrapper in self._field_ops(gf).items():
            self._restore.append((gf.FieldElem, meth, gf.FieldElem.__dict__[meth]))
            setattr(gf.FieldElem, meth, wrapper)
        return self

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    @contextmanager
    def operation(self, index: int, label: str):
        """Root span of one benchmark operation; its phases share the index."""
        self._op = index
        frame = [0.0, self._new_id()]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((frame[1], None, f"op.{label}", t0, t1, index))
            self._op = None

    # ----- results ----------------------------------------------------------
    def metrics(self) -> dict[str, dict]:
        sources = {"total": self.total, "self": self.self_s, "calls": self.calls, "count": self.counts}
        out = {}
        for metric, unit, (kind, name) in LAYER_METRICS:
            out[metric] = {"value": sources[kind].get(name, 0.0 if unit == "s" else 0), "unit": unit}
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(span) + "\n")


def layer_table(metrics: dict[str, dict], wall_s: float) -> list[str]:
    """The layer metrics, with each time as a share of the traced wall time."""
    lines = []
    for name, entry in metrics.items():
        value = entry["value"]
        if entry["unit"] == "s":
            lines.append(f"{name:32s} {value:12.3f} s  {100 * value / wall_s:5.1f}%")
        else:
            lines.append(f"{name:32s} {value:12g} {entry['unit']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="trace one afl-lab verify --q Q --sig SIG")
    parser.add_argument("--q", type=int, default=3)
    parser.add_argument("--sig", required=True)
    args = parser.parse_args(argv)
    from run import import_afl_lab
    from oracle import check_afl_report

    import_afl_lab()
    from afl_lab import engine, forge

    tracer = Tracer().install()
    t0 = time.perf_counter()
    with tracer.operation(0, "verify"):
        inst = forge.instance_from_spec(args.sig, args.q, 0)
        report = engine.afl_verdict(inst, cross_check=True).to_json()
    wall = time.perf_counter() - t0
    tracer.uninstall()
    problems = check_afl_report(report, args.q, args.sig)
    print(f"verify --q {args.q} --sig {args.sig} --seed 0: {wall:.2f} s traced, "
          f"verdict {report['verdict']}, oracle {'agrees' if not problems else problems}")
    for line in layer_table(tracer.metrics(), wall):
        print(line)
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
