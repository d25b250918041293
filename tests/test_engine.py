import json
import math

import pytest

from afl_lab import cli, engine
from afl_lab.engine import (
    afl_support,
    afl_verdict,
    closed_form_cardinality,
    closed_form_derivative_magnitude,
    fl_check,
    fl_report,
    geometric_count,
    orbital_derivative_at_one,
    orbital_polynomial,
    orbital_pretty,
    orbital_value_at_one,
    script_w,
)
from afl_lab.errors import CrossCheckError, InputError
from afl_lab.forge import MinusculeInstance, instance_from_spec
from afl_lab.hermitian import adapted_basis
from afl_lab.linalg import invariant_subspaces
from oracles import (
    divisors_by_filter,
    every_divisor,
    lattice_spans,
    m_counts,
    script_w_direct,
    stable_exponents,
    stratum_charpoly_by_slice,
    tau_map,
    transform_subspace,
)
from test_linalg import checked_lattice


def inst_of(spec, q=3, seed=0):
    return instance_from_spec(spec, q, seed)


def duality_involution_orbits(inst: MinusculeInstance) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The map W -> W-perp restricted to the stable set, as exponent-vector
    pairs; it must send dimension i to n - i."""
    fact = inst.fact
    out = []
    for vec, _ in stable_exponents(inst):
        dual = tuple(a - vec[j] for (_, a), j in zip(fact.factors, fact.pairing))
        out.append((vec, dual))
    return out


# ---------------------------------------------------------------------------
# the stable subspace set


def test_script_w_dim1():
    assert script_w(inst_of("sp:1:1")) == (1, 1)


def test_script_w_self_paired_cube():
    assert script_w(inst_of("sp:1:3")) == (1, 1, 1, 1)


def test_script_w_pair_plus_self():
    # (1 + u^2)(1 + u): the pair steps by twice its degree
    assert script_w(inst_of("cp:1:1,sp:1:1")) == (1, 1, 1, 1)


def test_script_w_counts_formula():
    inst = inst_of("cp:1:2,sp:1:3")
    fact = inst.fact
    expected = 1
    for i in fact.self_paired():
        expected *= fact.factors[i][1] + 1
    for i, _ in fact.pairs():
        expected *= fact.factors[i][1] + 1
    assert sum(script_w(inst)) == expected


@pytest.mark.parametrize("spec,q", [("sp:1:3", 3), ("cp:1:1,sp:1:1", 3), ("cp:1:2,sp:1:1", 5)])
def test_script_w_matches_direct_tau_stability(spec, q):
    inst = inst_of(spec, q, 3)
    subs = lattice_spans(checked_lattice(inst.g, inst.fact.factors))
    assert script_w(inst) == m_counts(stable_exponents(inst), inst.n)
    expected = {vec for vec, _ in stable_exponents(inst)}
    via_tau = {
        vec
        for vec, sub in subs.items()
        if transform_subspace(sub, tau_map(inst.tau)) == sub
    }
    assert expected == via_tau
    assert len(script_w_direct(inst)) == len(expected)


def assert_counting_routes_equal_oracles(inst):
    """The pruned walk against the filtered full product, triple for
    triple; on odd n each stratum's charpoly, the product of the chains'
    step charpolys, against the Hessenberg charpoly of its slice, stratum
    by stratum; and the product of script_w against the counted vector
    enumeration, count for count."""
    basis = adapted_basis(invariant_subspaces(inst.g, inst.fact.factors), inst.space, inst.g)
    divisors = list(basis.divisors())
    assert divisors == divisors_by_filter(basis)
    if inst.n % 2:
        strata = geometric_count(inst, cross_check=False).strata
        assert [r.exponents for r in strata] == [vec for vec, _, _ in divisors]
        assert [r.quotient_charpoly for r in strata] == [
            stratum_charpoly_by_slice(basis, w, perp) for _, w, perp in divisors
        ]
    assert script_w(inst) == m_counts(stable_exponents(inst), inst.n)


class CountingTable(dict):
    """A prefix table that records the exponent of every entry read from it."""

    def __init__(self, table, reads):
        super().__init__(table)
        self.reads = reads

    def __getitem__(self, k):
        self.reads.append(k)
        return super().__getitem__(k)

    def items(self):
        for k, v in super().items():
            self.reads.append(k)
            yield k, v


@pytest.mark.parametrize("spec,q", [(spec, q) for q in (3, 5, 17, 31) for spec in cli.DEFAULT_SIGNATURES])
def test_counting_routes_equal_oracles_on_the_default_signatures(spec, q):
    assert_counting_routes_equal_oracles(inst_of(spec, q))


@pytest.mark.parametrize("blocks", [["sp:1:1"] * 17, ["cp:1:1"] * 8 + ["sp:1:1"], ["cp:1:2"] * 5 + ["sp:1:1"]],
                         ids=["17sp", "8cp_sp", "5cp2_sp"])
def test_counting_routes_equal_oracles_at_the_divisor_bound(blocks):
    # README's three shapes at the bound: 2^17, 2^17 and 2 * 3^10 divisors
    assert_counting_routes_equal_oracles(inst_of(",".join(blocks), q=31))


def test_both_routes_at_the_divisor_bound_touch_only_what_they_count():
    # 17 sp:1:1 at q = 31 has 2^17 divisors, the bound itself, and no
    # isotropic line: the walk yields W = 0 alone, ending each chain's loop
    # at its line, and script_w is the product (1 + u)^17
    inst = inst_of(",".join(["sp:1:1"] * 17), q=31)
    basis = adapted_basis(invariant_subspaces(inst.g, inst.fact.factors), inst.space, inst.g)
    reads = [[] for _ in basis.prefixes]
    object.__setattr__(basis, "prefixes", tuple(map(CountingTable, basis.prefixes, reads)))
    assert list(basis.divisors()) == [((0,) * 17, 0, (1 << 17) - 1)]
    assert [len(r) <= 2 for r in reads] == [True] * 17
    assert script_w(inst) == tuple(math.comb(17, i) for i in range(18))


# ---------------------------------------------------------------------------
# analytic side


def test_analytic_dim1():
    assert afl_verdict(inst_of("sp:1:1")).analytic == 1


def test_analytic_self_paired_cube():
    assert afl_verdict(inst_of("sp:1:3")).analytic == 2


def test_analytic_pair_plus_self():
    assert afl_verdict(inst_of("cp:1:1,sp:1:1")).analytic == 2


def test_analytic_rejects_even_dim():
    with pytest.raises(InputError, match="odd-dimensional"):
        afl_verdict(inst_of("cp:1:1"))


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


def test_a_recount_that_disagrees_is_a_hard_error(monkeypatch, capsys):
    # the eigenline counter loses one record: exit 2, never a finding
    spec, real = "cp:1:2,sp:1:1", engine.dl_fixed_points
    monkeypatch.setattr(engine, "dl_fixed_points", lambda *args, **kwargs: real(*args, **kwargs)[1:])
    with pytest.raises(CrossCheckError, match=r"eigenline count 0 disagrees with the formula count 1"):
        geometric_count(inst_of(spec))
    assert cli.main(["verify", "--q", "3", "--sig", spec]) == 2
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err)["error"] == "CrossCheckError"


def test_a_contributing_stratum_of_even_exponent_is_a_hard_error(monkeypatch):
    # every slice reads as the pair factor of exponent 2
    inst = inst_of("cp:1:2,sp:1:1")
    even = next(f for f, a in inst.fact.factors if a == 2)
    monkeypatch.setattr(engine, "charpoly", lambda m: even)
    with pytest.raises(CrossCheckError, match="contributing stratum with even global exponent"):
        geometric_count(inst, cross_check=False)


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
    analytic = afl_verdict(inst).analytic
    for ell in (0, 1, 2, -1, -5):
        coeffs = orbital_polynomial(inst, ell)
        deriv = orbital_derivative_at_one(coeffs)
        values = [*coeffs, *coeffs.values(), orbital_value_at_one(coeffs), deriv]
        assert all(type(v) is int for v in values), (ell, coeffs)  # no float from a negative power
        assert orbital_value_at_one(coeffs) == 0
        assert (-1) ** (ell % 2 + 1) * deriv == analytic


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
        assert engine._alternating(script_w(inst_of(spec))) == 0


def test_duality_sends_mi_to_mn_minus_i():
    inst = inst_of("cp:1:2,sp:1:3")
    counts = script_w(inst)
    for i, c in enumerate(counts):
        assert c == counts[inst.n - i]
    members = {vec for vec, _ in stable_exponents(inst)}
    for vec, dual in duality_involution_orbits(inst):
        assert dual in members


def test_duality_matches_gram_complement():
    # the divisor-level dual equals the honest orthogonal complement
    from test_hermitian import orth_complement, walk_of

    inst = inst_of("cp:1:1,sp:1:3", q=3, seed=5)
    subs, basis = walk_of(inst)
    duals = dict(duality_involution_orbits(inst))
    masks = {vec: (w, perp) for vec, w, perp in every_divisor(basis)}
    for vec, dual in duals.items():
        assert orth_complement(subs[vec], inst.space) == subs[dual]
        assert masks[vec][1] == masks[dual][0]
