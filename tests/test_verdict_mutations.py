"""Every verdict check can fail.  Each mutation below monkeypatches one
count or closed form in `engine`; the report must then fail exactly the
listed checks, and `afl-lab verify` on the same instance must exit 1.  Where
one defect necessarily trips several checks, the listed set says which (the
pair product feeds all three closed forms; A != G on finite support breaks
the derivative closed form too, and on empty support the vanishing counts).
The even-dimensional counting identity of `fl` is mutated on either side."""

import dataclasses
import json

import pytest

from afl_lab import cli, engine, hermitian
from afl_lab.forge import instance_from_spec

FINITE = "cp:1:2,sp:1:1"  # support at the sp block, three contributing strata
EMPTY = "sp:1:1,sp:1:1,sp:1:1"  # three odd self-paired factors: empty support


def plus_one(fn):
    return lambda *args: fn(*args) + 1


def geometric(edit):
    """A mutation of geometric_count that edits its result."""
    return lambda fn: lambda *args, **kwargs: edit(fn(*args, **kwargs))


def shift_total(geo):
    return dataclasses.replace(geo, total=geo.total + 1)


def flip_support(geo):
    return dataclasses.replace(geo, nonempty=not geo.nonempty)


def retype_contributing(geo):
    strata = tuple(dataclasses.replace(r, type=r.type + 1) if r.fixed_count else r for r in geo.strata)
    return dataclasses.replace(geo, strata=strata)


def lopsided_counts(fn):
    # 1, 2, 1 more subspaces in dimensions 0, 1, 2: the orbital value and
    # derivative at 1 do not move, only the symmetry i -> n - i breaks
    def counts(sw, n):
        out = dict(fn(sw, n))
        for i, extra in ((0, 1), (1, 2), (2, 1)):
            out[i] += extra
        return out

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
    ("duality_m_counts", FINITE, "m_counts", lopsided_counts, {"duality_m_counts"}),
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


def every_half_dimensional_divisor_is_lagrangian(basis, vec):
    return basis.coords[vec]


@pytest.mark.parametrize("side,owner,attr,mutate", [
    ("lhs", engine, "alternating_sum", plus_one),
    ("rhs", hermitian.AdaptedBasis, "perp", lambda fn: every_half_dimensional_divisor_is_lagrangian),
])
def test_fl_counting_identity_can_fail(side, owner, attr, mutate, monkeypatch, capsys):
    # sp:1:1,sp:1:1 has no invariant Lagrangian, but two invariant lines
    spec = "sp:1:1,sp:1:1"
    inst = instance_from_spec(spec, 3, 0)
    assert engine.fl_check(inst) == (0, 0)
    monkeypatch.setattr(owner, attr, mutate(getattr(owner, attr)))
    lhs, rhs = engine.fl_check(inst)
    assert (lhs != 0, rhs != 0) == (side == "lhs", side == "rhs")
    for command in ("fl", "verify"):
        assert cli.main([command, "--q", "3", "--sig", spec]) == 1
        assert json.loads(capsys.readouterr().out)["verdict"] == "FAIL"
