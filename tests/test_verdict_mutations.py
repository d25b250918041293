"""Every verdict check can fail.  Each mutation below monkeypatches one
count or closed form in `engine`; the report must then fail exactly the
listed checks, and `afl-lab verify` on the same instance must exit 1.  Where
one defect necessarily trips several checks, the listed set says which (the
pair product feeds all three closed forms; A != G on finite support breaks
the derivative closed form too, and on empty support the vanishing counts).
The even-dimensional counting identity of `fl` is mutated on either side, and
each check of `afl-lab dl` (the chain of v_0, the Galois orbit) with the
other left as it is."""

import json

import pytest

from afl_lab import cli, dl, engine, gf, hermitian
from afl_lab.engine import GeometricResult, StratumRecord
from afl_lab.forge import instance_from_spec

FINITE = "cp:1:2,sp:1:1"  # support at the sp block, three contributing strata
EMPTY = "sp:1:1,sp:1:1,sp:1:1"  # three odd self-paired factors: empty support


def plus_one(fn):
    return lambda *args: fn(*args) + 1


def geometric(edit):
    """A mutation of geometric_count that edits its result."""
    return lambda fn: lambda *args, **kwargs: edit(fn(*args, **kwargs))


def shift_total(geo):
    return GeometricResult(geo.strata, geo.total + 1, geo.nonempty)


def flip_support(geo):
    return GeometricResult(geo.strata, geo.total, not geo.nonempty)


def retype(r):
    return StratumRecord(r.exponents, r.dim_w, r.type + 1, r.quotient_charpoly, r.fixed_count, r.multiplicity,
                         r.dl_count)


def retype_contributing(geo):
    return GeometricResult(tuple(retype(r) if r.fixed_count else r for r in geo.strata), geo.total, geo.nonempty)


def lopsided_counts(fn):
    # 1, 2, 1 more subspaces in dimensions 0, 1, 2: A, the alternating sum
    # and the orbital value and derivative at 1 do not move, only the
    # symmetry i -> n - i breaks
    def counts(inst):
        return tuple(c + extra for c, extra in zip(fn(inst), (1, 2, 1, *[0] * inst.n)))

    return counts


MUTATIONS = [
    ("analytic_equals_geometric", FINITE, "geometric_count", geometric(shift_total),
     {"analytic_equals_geometric", "derivative_closed_form"}),
    ("support_agreement", FINITE, "geometric_count", geometric(flip_support), {"support_agreement"}),
    ("cardinality_closed_form", FINITE, "closed_form_cardinality", plus_one, {"cardinality_closed_form"}),
    ("derivative_closed_form", FINITE, "closed_form_derivative_magnitude", plus_one, {"derivative_closed_form"}),
    ("stratum_types", FINITE, "geometric_count", geometric(retype_contributing), {"stratum_types"}),
    ("stratum_count", FINITE, "pair_exponent_product", plus_one,
     {"stratum_count", "cardinality_closed_form", "derivative_closed_form"}),
    ("vanishing_counts", EMPTY, "geometric_count", geometric(shift_total),
     {"vanishing_counts", "analytic_equals_geometric"}),
    ("alternating_sum_zero", FINITE, "_alternating", plus_one, {"alternating_sum_zero"}),
    ("duality_m_counts", FINITE, "script_w", lopsided_counts, {"duality_m_counts"}),
    ("orbital_vanishes_at_one", FINITE, "orbital_value_at_one", plus_one, {"orbital_vanishes_at_one"}),
    ("orbital_derivative_matches", FINITE, "orbital_derivative_at_one", plus_one, {"orbital_derivative_matches"}),
]


def test_mutations_cover_every_named_check():
    names = set()
    for spec in (FINITE, EMPTY):
        report = engine.afl_verdict(instance_from_spec(spec, 3, 0))
        assert report.verdict == "PASS"
        names |= {c.name for c in report.checks}
    assert len(names) == 11
    assert {m[0] for m in MUTATIONS} == names


@pytest.mark.parametrize("check,spec,attr,mutate,failing", MUTATIONS, ids=[m[0] for m in MUTATIONS])
def test_each_verdict_check_can_fail(check, spec, attr, mutate, failing, monkeypatch, capsys):
    assert check in failing
    monkeypatch.setattr(engine, attr, mutate(getattr(engine, attr)))
    report = engine.afl_verdict(instance_from_spec(spec, 3, 0))
    assert {c.name for c in report.checks if not c.ok} == failing
    assert cli.main(["verify", "--q", "3", "--sig", spec]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "FAIL"
    assert {c["name"] for c in out["checks"] if not c["ok"]} == failing


def every_yielded_divisor_is_lagrangian(divisors):
    # the walk yields isotropic divisors only, W = 0 alone on sp:1:1,sp:1:1
    def mutant(basis):
        for vec, w, _ in divisors(basis):
            yield vec, w, w
    return mutant


@pytest.mark.parametrize("side,owner,attr,mutate", [
    ("lhs", engine, "_alternating", plus_one),
    ("rhs", hermitian.AdaptedBasis, "divisors", every_yielded_divisor_is_lagrangian),
])
def test_fl_counting_identity_can_fail(side, owner, attr, mutate, monkeypatch, capsys):
    # sp:1:1,sp:1:1 has no invariant Lagrangian, but two invariant lines
    spec = "sp:1:1,sp:1:1"
    inst = instance_from_spec(spec, 3, 0)
    assert engine.fl_check(inst) == (0, 0)
    monkeypatch.setattr(owner, attr, mutate(getattr(owner, attr)))
    lhs, rhs = engine.fl_check(inst)
    assert (lhs, rhs) == ((1, 0) if side == "lhs" else (0, 1))
    assert cli.main(["verify", "--q", "3", "--sig", spec]) == 1
    assert json.loads(capsys.readouterr().out)["verdict"] == "FAIL"


def chain_of_v0_broken(monkeypatch):
    # h(v_0, v_0) becomes nonzero, which fails the chain at every t >= 3
    dot, calls = dl._dot, []

    def mutant(x, y):
        calls.append(1)
        value = dot(x, y)
        return value + gf.one(value.p, value.level) if len(calls) == 1 else value

    monkeypatch.setattr(dl, "_dot", mutant)


def orbit_not_transitive(monkeypatch):
    monkeypatch.setattr(cli, "galois_orbit_check", lambda records: False)


@pytest.mark.parametrize("mutate,count", [(chain_of_v0_broken, 0), (orbit_not_transitive, 3)],
                         ids=["chain", "galois_orbit"])
def test_each_dl_check_can_fail(mutate, count, monkeypatch, capsys):
    argv = ["dl", "--q", "3", "--t", "3", "--seed", "1"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    mutate(monkeypatch)
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert err == "" and out.count("\n") == 1
    data = json.loads(out)
    assert data["count"] == count and data["galois_transitive"] is False
