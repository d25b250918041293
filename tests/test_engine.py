import pytest

from afl_lab.engine import (
    afl_support,
    afl_verdict,
    alternating_sum,
    analytic_count,
    closed_form_cardinality,
    closed_form_derivative_magnitude,
    fl_check,
    fl_report,
    geometric_count,
    m_counts,
    orbital_derivative_at_one,
    orbital_polynomial,
    orbital_pretty,
    orbital_value_at_one,
    script_w,
)
from afl_lab.errors import InputError
from afl_lab.forge import MinusculeInstance, instance_from_spec
from afl_lab.linalg import invariant_subspaces
from oracles import lattice_spans, script_w_direct, tau_map, transform_subspace


def inst_of(spec, q=3, seed=0):
    return instance_from_spec(spec, q, seed)


def duality_involution_orbits(inst: MinusculeInstance) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The map W -> W-perp restricted to the stable set, as exponent-vector
    pairs; it must send dimension i to n - i."""
    fact = inst.fact
    out = []
    for vec, _ in script_w(inst).members:
        dual = tuple(a - vec[j] for (_, a), j in zip(fact.factors, fact.pairing))
        out.append((vec, dual))
    return out


# ---------------------------------------------------------------------------
# the stable subspace set


def test_script_w_dim1():
    sw = script_w(inst_of("sp:1:1"))
    assert sorted(d for _, d in sw.members) == [0, 1]


def test_script_w_self_paired_cube():
    sw = script_w(inst_of("sp:1:3"))
    assert sorted(d for _, d in sw.members) == [0, 1, 2, 3]


def test_script_w_pair_plus_self():
    sw = script_w(inst_of("cp:1:1,sp:1:1"))
    assert sorted(d for _, d in sw.members) == [0, 1, 2, 3]


def test_script_w_counts_formula():
    inst = inst_of("cp:1:2,sp:1:3")
    fact = inst.fact
    expected = 1
    for i in fact.self_paired():
        expected *= fact.factors[i][1] + 1
    for i, _ in fact.pairs():
        expected *= fact.factors[i][1] + 1
    assert len(script_w(inst).members) == expected


@pytest.mark.parametrize("spec,q", [("sp:1:3", 3), ("cp:1:1,sp:1:1", 3), ("cp:1:2,sp:1:1", 5)])
def test_script_w_matches_direct_tau_stability(spec, q):
    inst = inst_of(spec, q, 3)
    subs = lattice_spans(invariant_subspaces(inst.g, inst.fact))
    expected = {vec for vec, _ in script_w(inst).members}
    via_tau = {
        vec
        for vec, sub in subs.items()
        if transform_subspace(sub, tau_map(inst.tau)) == sub
    }
    assert expected == via_tau
    assert len(script_w_direct(inst)) == len(expected)


# ---------------------------------------------------------------------------
# analytic side


def test_analytic_dim1():
    assert analytic_count(inst_of("sp:1:1")) == 1


def test_analytic_self_paired_cube():
    assert analytic_count(inst_of("sp:1:3")) == 2


def test_analytic_pair_plus_self():
    assert analytic_count(inst_of("cp:1:1,sp:1:1")) == 2


def test_analytic_rejects_even_dim():
    with pytest.raises(InputError):
        analytic_count(inst_of("cp:1:1"))


# ---------------------------------------------------------------------------
# support


def test_support_single_self_paired():
    assert afl_support(inst_of("sp:1:1").fact) is not None


def test_support_three_self_paired_is_empty():
    assert afl_support(inst_of("sp:1:1,sp:1:1,sp:1:1").fact) is None


def test_support_parity_scan():
    fact = inst_of("sp:1:3,sp:1:2").fact
    i0 = afl_support(fact)
    assert i0 is not None
    assert fact.factors[i0][1] == 3


# ---------------------------------------------------------------------------
# geometric side


def test_geometric_dim1():
    geo = geometric_count(inst_of("sp:1:1"))
    assert geo.total == 1 and geo.nonempty
    [stratum] = geo.strata
    assert stratum.type == 1 and stratum.fixed_count == 1 and stratum.multiplicity == 1


def test_geometric_self_paired_cube_has_multiplicity_two():
    geo = geometric_count(inst_of("sp:1:3"))
    contributing = [r for r in geo.strata if r.fixed_count]
    assert len(contributing) == 1
    assert contributing[0].multiplicity == 2
    assert geo.total == 2


def test_geometric_pair_plus_self_two_strata():
    geo = geometric_count(inst_of("cp:1:1,sp:1:1"))
    contributing = [r for r in geo.strata if r.fixed_count]
    assert len(contributing) == 2
    assert all(r.type == 1 and r.multiplicity == 1 for r in contributing)
    assert geo.total == 2


def test_geometric_empty_case():
    geo = geometric_count(inst_of("sp:1:1,sp:1:1,sp:1:1"))
    assert geo.total == 0 and not geo.nonempty


def test_geometric_stratum_records_are_consistent():
    inst = inst_of("cp:1:2,sp:1:1", q=5, seed=2)
    geo = geometric_count(inst)
    n = inst.n
    for rec in geo.strata:
        assert rec.type == n - 2 * rec.dim_w
        assert rec.fixed_count in (0, rec.type)
        if rec.fixed_count:
            assert rec.dl_count == rec.fixed_count


# ---------------------------------------------------------------------------
# closed forms


def test_closed_cardinality_deg3():
    assert closed_form_cardinality(inst_of("sp:3:1").fact) == 3


def test_closed_cardinality_with_pairs():
    assert closed_form_cardinality(inst_of("cp:1:1,sp:1:1").fact) == 2
    assert closed_form_cardinality(inst_of("cp:1:2,sp:1:1").fact) == 3


def test_closed_derivative_magnitudes():
    assert closed_form_derivative_magnitude(inst_of("sp:1:1").fact) == 1
    assert closed_form_derivative_magnitude(inst_of("sp:1:3").fact) == 2
    assert closed_form_derivative_magnitude(inst_of("cp:1:1,sp:1:1").fact) == 2


def test_closed_forms_need_finite_support():
    with pytest.raises(InputError):
        closed_form_cardinality(inst_of("sp:1:1,sp:1:1,sp:1:1").fact)


# ---------------------------------------------------------------------------
# orbital polynomial


def test_orbital_dim1():
    coeffs = orbital_polynomial(inst_of("sp:1:1"), 0)
    assert coeffs == {0: 1, 1: -1}
    assert orbital_pretty(coeffs) == "1 - u"


def test_orbital_dim1_shifted():
    coeffs = orbital_polynomial(inst_of("sp:1:1"), 1)
    assert coeffs == {1: -1, 2: 1}
    assert orbital_pretty(coeffs) == "-u + u^2"


@pytest.mark.parametrize("spec", ["sp:1:1", "sp:1:3", "cp:1:1,sp:1:1", "sp:1:1,sp:1:1,sp:1:1"])
def test_orbital_vanishes_at_one_for_odd_dim(spec):
    inst = inst_of(spec)
    for ell in (0, 1, 2):
        coeffs = orbital_polynomial(inst, ell)
        assert orbital_value_at_one(coeffs) == 0
        deriv = orbital_derivative_at_one(coeffs)
        assert (-1) ** (ell + 1) * deriv == analytic_count(inst)


# ---------------------------------------------------------------------------
# even-dimensional counting identity


def test_fl_conjugate_pair():
    assert fl_check(inst_of("cp:1:1")) == (2, 2)


def test_fl_self_paired_square():
    assert fl_check(inst_of("sp:1:2")) == (1, 1)


def test_fl_rejects_odd_dim():
    with pytest.raises(InputError):
        fl_check(inst_of("sp:1:1"))


@pytest.mark.parametrize("spec", ["cp:1:1", "sp:1:2", "cp:1:1,sp:1:2", "cp:2:1"])
@pytest.mark.parametrize("q", [3, 5])
def test_fl_identity_holds(spec, q):
    lhs, rhs = fl_check(inst_of(spec, q, 4))
    assert lhs == rhs


def test_fl_report_shape():
    rep = fl_report(inst_of("cp:1:1"))
    assert rep["verdict"] == "PASS" and rep["lhs"] == rep["rhs"]


# ---------------------------------------------------------------------------
# verdicts


def test_verdict_dim1_passes():
    rep = afl_verdict(inst_of("sp:1:1"))
    assert rep.verdict == "PASS"
    assert rep.analytic == rep.geometric.total == 1


def test_verdict_empty_support_passes():
    rep = afl_verdict(inst_of("sp:1:1,sp:1:1,sp:1:1"))
    assert rep.verdict == "PASS"
    assert rep.support == "Empty"
    assert rep.analytic == rep.geometric.total == 0


def test_verdict_dim7():
    rep = afl_verdict(inst_of("cp:1:2,sp:1:3"))
    assert rep.verdict == "PASS"
    assert rep.analytic == rep.geometric.total == 6


def test_verdict_json_schema():
    data = afl_verdict(inst_of("cp:1:1,sp:1:1")).to_json()
    for key in ("instance", "A", "G", "closed_card", "closed_deriv", "support", "strata", "verdict", "notes"):
        assert key in data
    assert data["verdict"] == "PASS"
    assert data["orbital"]["value_at_1"] == 0


def test_alternating_sum_vanishes_odd():
    for spec in ("sp:1:1", "sp:1:3", "cp:1:1,sp:1:3"):
        assert alternating_sum(inst_of(spec)) == 0


def test_duality_sends_mi_to_mn_minus_i():
    inst = inst_of("cp:1:2,sp:1:3")
    counts = m_counts(script_w(inst), inst.n)
    for i, c in counts.items():
        assert c == counts[inst.n - i]
    members = {vec for vec, _ in script_w(inst).members}
    for vec, dual in duality_involution_orbits(inst):
        assert dual in members


def test_duality_matches_gram_complement():
    # the divisor-level dual equals the honest orthogonal complement
    from test_hermitian import orth_complement, walk_of

    inst = inst_of("cp:1:1,sp:1:3", q=3, seed=5)
    subs, basis = walk_of(inst)
    duals = dict(duality_involution_orbits(inst))
    for vec, dual in duals.items():
        assert orth_complement(subs[vec], inst.space) == subs[dual]
        assert basis.perp(vec) == basis.coords[dual]
