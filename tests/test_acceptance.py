"""Acceptance battery: every criterion is exact-integer and prints one line.

Criterion 1 drives a 200-instance seeded sweep over q in {3, 5} across the
ten signature shapes (including the empty-support case) and demands that the
two counting routes agree everywhere and match the closed forms.  The other
criteria re-read the same sweep (cardinality formula, vanishing, duality),
count eigenlines on seeded Coxeter elements, compare the invariant-subspace
lattice against the brute-force oracle, and pin the byte-determinism
contract of the sweep command.  The golden hashes pin the sweep stdout, the
full `sweep --out` payload and two single-command outputs byte for byte, so
a refactor that changes any report shows up here.
"""

import hashlib
import random
import subprocess
import sys

import pytest

from afl_lab.cli import DEFAULT_SIGNATURES, SweepConfig, _dump, main, run_sweep
from afl_lab.dl import dl_fixed_points, galois_orbit_check
from afl_lab.forge import random_coxeter_instance
from afl_lab.linalg import Matrix, charpoly, invariant_subspaces
from afl_lab.poly import plain_factor
from conftest import random_matrix
from oracles import lattice_spans, naive_subspace_scan
from test_linalg import probe_is_regular


def report(criterion, ok, detail=""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def sweep_reports():
    config = SweepConfig(
        qs=(3, 5),
        max_dim=9,
        count=200,
        seed=20240,
        signatures=DEFAULT_SIGNATURES,
        jobs=1,
        out=None,
        cross_check=True,
    )
    summary, reports = run_sweep(config)
    return summary, reports


def test_criterion_1_afl_identity(sweep_reports):
    summary, reports = sweep_reports
    afl = [r for r in reports if r["kind"] == "afl"]
    ok = summary["instances"] >= 200 and len(afl) == len(reports)
    specs = {(r["q"], r["spec"]) for r in afl}
    ok = ok and len(specs) == 20  # 10 signatures x 2 primes
    for r in afl:
        ok = ok and r["A"] == r["G"]
        if r["support"] == "Finite":
            ok = ok and r["A"] == r["closed_deriv"] and r["G"] == r["closed_deriv"]
        else:
            ok = ok and r["A"] == 0 and r["G"] == 0
        ok = ok and r["verdict"] == "PASS"
    report(1, ok, f"{len(afl)} instances, {summary['passes']} passes, {summary['fails']} fails")


def test_criterion_2_cardinality_formula(sweep_reports):
    _, reports = sweep_reports
    checked = 0
    ok = True
    for r in reports:
        if r["kind"] != "afl" or r["support"] != "Finite":
            continue
        checked += 1
        contributing = [s for s in r["strata"] if s["fixed_count"]]
        # every contributing stratum was recounted by the eigenline route
        ok = ok and all(s["dl_count"] == s["fixed_count"] for s in contributing)
        ok = ok and sum(s["dl_count"] for s in contributing) == r["closed_card"]
        types = {s["type"] for s in contributing}
        ok = ok and len(types) == 1
    report(2, ok and checked > 0, f"{checked} finite-support instances")


@pytest.mark.parametrize("q,t", [(3, 1), (3, 3), (3, 5), (5, 1), (5, 3), (5, 5)])
def test_criterion_3_dl_counts(q, t):
    ok = True
    for seed in range(10):
        inst = random_coxeter_instance(q, t, seed)
        records = dl_fixed_points(inst.space, inst.g, seed=seed)
        ok = ok and len(records) == t and galois_orbit_check(records)
    report(3, ok, f"(q={q}, t={t}) x 10 seeds")


@pytest.mark.slow
def test_criterion_3_slow_t7():
    inst = random_coxeter_instance(3, 7, 0)
    records = dl_fixed_points(inst.space, inst.g, seed=0)
    report("3-slow", len(records) == 7 and galois_orbit_check(records), "(q=3, t=7)")


def test_criterion_4_vanishing(sweep_reports):
    _, reports = sweep_reports
    ok = all(
        r["alt_sum"] == 0 and r["orbital"]["value_at_1"] == 0
        for r in reports
        if r["kind"] == "afl"
    )
    report(4, ok, "alternating sum and orbital value at u=1")


def test_criterion_5_fl_identity():
    ok = True
    findings = []
    for q in (3, 5):
        for spec in ("cp:1:1", "sp:1:2", "cp:1:1,sp:1:2", "cp:2:1"):
            for seed in range(5):
                from afl_lab.engine import fl_check
                from afl_lab.forge import instance_from_spec

                lhs, rhs = fl_check(instance_from_spec(spec, q, seed))
                if lhs != rhs:
                    findings.append((q, spec, seed, lhs, rhs))
                    ok = False
    report(5, ok, f"findings: {findings}" if findings else "40 even-dimensional instances")


def test_criterion_6_oracle_equivalence():
    rng = random.Random(606)
    checked = 0
    ok = True
    while checked < 50:
        n = rng.randrange(1, 4)
        m = random_matrix(3, 2, n, rng)
        if not probe_is_regular(m):
            continue
        checked += 1
        fact = plain_factor(charpoly(m), checked)
        lattice = set(lattice_spans(invariant_subspaces(m, fact)).values())
        scanned = set(naive_subspace_scan(m))
        ok = ok and lattice == scanned
    # the dim-4 Jordan-block case
    from afl_lab.gf import gen, one, zero

    lam = gen(3, 2)
    z, o = zero(3, 2), one(3, 2)
    j4 = Matrix.from_rows(3, 2, [
        [lam, o, z, z],
        [z, lam, o, z],
        [z, z, lam, o],
        [z, z, z, lam],
    ])
    fact = plain_factor(charpoly(j4), 0)
    lattice = set(lattice_spans(invariant_subspaces(j4, fact)).values())
    scanned = set(naive_subspace_scan(j4))
    ok = ok and lattice == scanned and len(lattice) == 5
    report(6, ok, f"{checked} random regular matrices plus the J_4 chain")


def test_criterion_7_duality(sweep_reports):
    _, reports = sweep_reports
    ok = True
    for r in reports:
        if r["kind"] != "afl":
            continue
        n = r["instance"]["n"]
        counts = {int(k): v for k, v in r["m_counts"].items()}
        ok = ok and all(counts.get(i, 0) == counts.get(n - i, 0) for i in range(n + 1))
    report(7, ok, "m_i = m_{n-i} on every odd-dimensional instance")


def test_criterion_8_sweep_determinism():
    base = [sys.executable, "-m", "afl_lab", "sweep", "--count", "16", "--seed", "77", "--q", "3,5"]
    runs = [
        subprocess.run(base + ["--jobs", "1"], capture_output=True, text=True),
        subprocess.run(base + ["--jobs", "1"], capture_output=True, text=True),
        subprocess.run(base + ["--jobs", "8"], capture_output=True, text=True),
    ]
    ok = all(r.returncode == 0 for r in runs)
    ok = ok and runs[0].stdout == runs[1].stdout == runs[2].stdout
    report(8, ok, "byte-identical across reruns and jobs 1 vs 8")


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_golden_sweep_hashes(sweep_reports):
    summary, reports = sweep_reports
    # stdout of `afl-lab sweep --count 200 --seed 20240 --q 3,5`
    assert _sha256(_dump(summary) + "\n") == "1d58d1afc8626f694de15f32842ed773e715fce1167768943ebb132b66b02fda"
    # the `--out` payload: every Gram, g and tau matrix of the sweep
    assert (
        _sha256(_dump({"summary": summary, "reports": reports}) + "\n")
        == "605ea586468787169a0889180184ac71d8eec69e3529ecf16d0b9c6f6b885713"
    )


@pytest.mark.parametrize(
    "argv,digest",
    [
        (["dl", "--q", "3", "--t", "7", "--seed", "0"],
         "ead14de6be6de815a31c75d8e14ed0648084ce2ca97bbb4d09e8f9fba203d34b"),
        (["gen", "--q", "3", "--coxeter", "--n", "5", "--seed", "1"],
         "444ee1365db0f29fb1f8d498b7f188894abe1dc1bef93b7f1b5585c2eeb6cf66"),
        (["dl", "--q", "5", "--t", "7", "--seed", "0"],
         "ccbf1c6815bde64efa35227308a220aa5d29e61911c6bcba77ddb4f627a61bdd"),
        (["dl", "--q", "3", "--t", "11", "--seed", "0"],
         "ffe7e12405857879caa3207091f2d15c10452b5892ec931a7df47ea1ac8106e0"),
        # the trace split at the largest prime: (p - 1)/2 = 8190
        (["dl", "--q", "16381", "--t", "3", "--seed", "0"],
         "3eaf92e9624f1c7e03be6828da02036f6ea6ea3982a609ffac855a01fad9c762"),
    ],
)
def test_golden_command_hashes(argv, digest, capsys, monkeypatch):
    monkeypatch.delenv("AFL_LAB_SEED", raising=False)
    assert main(argv) == 0
    assert _sha256(capsys.readouterr().out) == digest
