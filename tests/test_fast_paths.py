"""Every structured fast path against its slow definition, exhaustively on
small fields: every DEFAULT_SIGNATURES instance at q = 3 and q = 5 for seeds
0-2, small signatures at the other tabled q (7, 11, 13) and at q = 17, the
first whose F_{q^2} is above the table cap, plus Coxeter instances, Jordan
blocks and random regular matrices.  The geometric walk's slices of the
adapted basis are checked stratum by stratum against the standard-basis
route, and the Lagrangian count on even instances at q = 3 to 17."""

import itertools
import random
import sys
from collections import Counter
from functools import lru_cache

import pytest

from afl_lab import gf, hermitian, linalg
from afl_lab.cli import DEFAULT_SIGNATURES
from afl_lab.dl import dl_fixed_points
from afl_lab.engine import afl_verdict, fl_check, geometric_count
from afl_lab.errors import InputError
from afl_lab.forge import _gram_columns, _toeplitz_unknowns, _unpack_gram, instance_from_spec
from afl_lab.hermitian import adapted_basis, induced_subquotient, is_isotropic, nondegenerate_space
from afl_lab.linalg import Matrix, charpoly, in_basis, invariant_subspaces
from afl_lab.poly import plain_factor, poly_key
from conftest import random_matrix
from oracles import (
    Subspace,
    divisor_poly,
    divisors_by_filter,
    every_divisor,
    kernel_of_poly,
    lattice_spans,
    mask_rows,
    matrix_difference,
    quotient_by_solves,
    solve_in_rows,
    span,
)
from test_hermitian import (
    assert_mask_perp_equals_scan,
    herm_product,
    orth_complement,
    subquotient_by_definition,
)
from test_linalg import (
    assert_lattice_equals_spans,
    checked_lattice,
    jordan_block,
    probe_is_regular,
    regular_by_definition,
)

GRID = [(spec, q, seed) for q in (3, 5) for spec in DEFAULT_SIGNATURES for seed in range(3)]
COXETER = [("coxeter:3", 3, seed) for seed in range(2)] + [("coxeter:3", 5, 0)]
WIDE_Q = [
    (spec, q, seed)
    for q in (7, 11, 13, 17)
    for spec in ("sp:1:3", "cp:1:1,sp:1:1", "cp:1:2,sp:1:1", "sp:1:1,sp:1:2", "cp:1:1,sp:1:3")
    for seed in range(2)
]
EVEN = [
    (spec, q, 0)
    for q in (3, 5, 7, 17)
    for spec in (
        "cp:1:1", "cp:1:2", "cp:1:1,cp:1:1", "cp:1:1,sp:1:2", "sp:1:1,sp:1:1",
        "cp:1:1,sp:1:1,sp:1:1", "sp:1:2,sp:1:2", "sp:1:1,sp:1:3",
    )
]


@lru_cache(maxsize=None)
def instance(spec, q, seed):
    return instance_from_spec(spec, q, seed)


@lru_cache(maxsize=None)
def lattice(spec, q, seed):
    inst = instance(spec, q, seed)
    return checked_lattice(inst.g, inst.fact.factors)


@lru_cache(maxsize=None)
def spans(spec, q, seed):
    return lattice_spans(lattice(spec, q, seed))


@lru_cache(maxsize=None)
def walk(spec, q, seed):
    inst = instance(spec, q, seed)
    return adapted_basis(lattice(spec, q, seed), inst.space, inst.g)


def probe_gram_columns(g, unknowns):
    """The constraint columns by definition: unpack each unknown's unit Gram
    matrix E and form g^T E conj(g) - E with full matrix products, keeping
    the nonzero entries by (row, column)."""
    p, n = g.p, g.n
    gt, gbar = g.transpose(), g.conj()
    columns = []
    for idx in range(len(unknowns)):
        probe = [0] * len(unknowns)
        probe[idx] = 1
        gm = _unpack_gram(probe, unknowns, p, n)
        mat = matrix_difference(gt @ gm @ gbar, gm)
        columns.append({(a, b): x for a, row in enumerate(mat.rows) for b, x in enumerate(row) if not x.is_zero})
    return columns


def probe_layout(n):
    """Pairing layouts for the column test: the whole space as one
    self-paired block, or two self-paired blocks and the pair between them
    (of different sizes when n is odd)."""
    k = n // 2
    if not k:
        return [(0, n, 0, n)]
    return [(0, k, 0, k), (k, n - k, k, n - k), (0, k, k, n - k)]


def regular_matrices():
    out = []
    for lam, n in [(gf.gen(3, 2), 3), (gf.one(3, 2), 4), (gf.gen(5, 2), 2)]:
        out.append(jordan_block(lam.p, 2, lam, n))
    rng = random.Random(20)
    while len(out) < 15:
        m = random_matrix(3, 2, rng.randrange(1, 5), rng)
        if probe_is_regular(m):
            out.append(m)
    return out


def assert_lattice_is_kernels(m, pairs):
    for vec, sub in lattice_spans(checked_lattice(m, pairs)).items():
        assert sub == kernel_of_poly(m, divisor_poly(pairs, vec)), vec


@pytest.mark.parametrize("spec,q,seed", GRID + COXETER + WIDE_Q)
def test_lattice_equals_kernels_of_divisors(spec, q, seed):
    inst = instance(spec, q, seed)
    assert_lattice_is_kernels(inst.g, inst.fact.factors)


def test_lattice_equals_kernels_on_jordan_and_random_regular():
    for m in regular_matrices():
        assert_lattice_is_kernels(m, plain_factor(charpoly(m)))


@pytest.mark.parametrize("spec,q,seed", GRID + COXETER + WIDE_Q + EVEN)
def test_is_regular_equals_every_factor_test(spec, q, seed):
    # g is regular; g + g repeats every primary component, so it is not
    inst = instance(spec, q, seed)
    assert linalg.is_regular(inst.g, inst.fact.factors) and regular_by_definition(inst.g, inst.fact.factors)
    doubled = Matrix.block_diag([inst.g, inst.g])
    fact = [(f, 2 * a) for f, a in inst.fact.factors]
    assert not linalg.is_regular(doubled, fact) and not regular_by_definition(doubled, fact)


@pytest.mark.parametrize("spec,q,seed", GRID + COXETER + WIDE_Q + EVEN)
def test_lazy_lattice_equals_eager_spans(spec, q, seed):
    inst = instance(spec, q, seed)
    assert_lattice_equals_spans(inst.g, inst.fact.factors)


@pytest.mark.parametrize("spec,q,seed", GRID + COXETER + WIDE_Q + EVEN)
def test_mask_perp_equals_row_scan_on_every_divisor(spec, q, seed):
    assert_mask_perp_equals_scan(walk(spec, q, seed))


def test_verify_path_forms_no_divisor_span(monkeypatch):
    # the lattice takes one echelon form per draw of a cyclic vector, the
    # walk one change of basis and one rank test of H: the echelon forms
    # grow with neither the 324 divisors nor the 72 isotropic strata
    inst = instance_from_spec("cp:1:2,cp:1:2,sp:1:3", 3, 0)
    assert len(checked_lattice(inst.g, inst.fact.factors)) == 324
    callers = Counter()
    real = linalg.rref

    def counting(rows):
        callers[sys._getframe(1).f_code.co_name] += 1
        return real(rows)

    monkeypatch.setattr(linalg, "rref", counting)
    monkeypatch.setattr(hermitian, "rref", counting)
    invariant_subspaces(inst.g, inst.fact.factors)
    draws = callers["_cyclic_krylov"]
    assert callers == {"_cyclic_krylov": draws} and 1 <= draws <= linalg.CYCLIC_DRAWS
    expected = {"_cyclic_krylov": draws, "in_basis": 1, "nondegenerate_space": 1}
    callers.clear()
    geometric_count(inst)
    assert callers == expected
    callers.clear()
    afl_verdict(inst, cross_check=True)
    assert callers == expected


def test_lattice_takes_no_kernel_power_or_polynomial_value(monkeypatch):
    inst = instance_from_spec("cp:1:2,cp:1:2,sp:1:3", 3, 0)

    def forbidden(*args):
        raise AssertionError("the lattice reads one cyclic vector only")

    monkeypatch.setattr(linalg, "null_basis", forbidden)
    monkeypatch.setattr(Matrix, "eval_poly", forbidden)
    matmul, products = Matrix.__matmul__, []

    def recording(a, b):
        # a power of g would multiply g by itself
        assert inst.g not in (a, b)
        products.append((a.n, b.n))
        return matmul(a, b)

    monkeypatch.setattr(Matrix, "__matmul__", recording)
    assert len(invariant_subspaces(inst.g, inst.fact.factors)) == 324
    # the step rows times the Krylov rows, and nothing else
    assert products == [(inst.n, inst.n)]


@pytest.mark.parametrize("spec,q,seed", GRID + COXETER + WIDE_Q)
def test_adapted_isotropy_equals_definition(spec, q, seed):
    inst = instance(spec, q, seed)
    subs = spans(spec, q, seed)
    expected = {vec for vec, sub in subs.items() if is_isotropic(sub.rows, inst.space)}
    assert {vec for vec, _, _ in walk(spec, q, seed).divisors()} == expected
    for sub in subs.values():
        pairs = itertools.product(sub.rows, repeat=2)
        pairwise = all(herm_product(inst.space, a, b).is_zero for a, b in pairs)
        assert is_isotropic(sub.rows, inst.space) == pairwise


@pytest.mark.parametrize("spec,q,seed", GRID + COXETER + WIDE_Q)
def test_strata_come_out_in_lexicographic_order(spec, q, seed):
    # the walk's own divisor order, with dim W read off each slice
    inst, subs = instance(spec, q, seed), spans(spec, q, seed)
    isotropic = sorted(vec for vec, sub in subs.items() if is_isotropic(sub.rows, inst.space))
    strata = geometric_count(inst, cross_check=False).strata
    assert [r.exponents for r in strata] == isotropic
    assert [r.dim_w for r in strata] == [subs[vec].dim for vec in isotropic]


@pytest.mark.parametrize("spec,q,seed", GRID + COXETER + WIDE_Q)
def test_gram_columns_equal_probe_products(spec, q, seed):
    inst = instance(spec, q, seed)
    # the columns are a linear map of E, so any layout checks them, on
    # Coxeter instances too
    unknowns = _toeplitz_unknowns(probe_layout(inst.n), q, inst.n)
    assert _gram_columns(inst.g, unknowns) == probe_gram_columns(inst.g, unknowns)


@pytest.mark.parametrize("spec,q,seed", GRID + COXETER + WIDE_Q)
def test_slice_walk_equals_subquotient_by_definition(spec, q, seed):
    """Stratum by stratum (the isotropic set itself is compared above): dim W,
    the type, the charpoly and the eigenline count of the slices against the
    standard-basis route; and on every divisor the rows of both masks
    against the kernel definitions of W and W-perp."""
    inst = instance(spec, q, seed)
    subs, basis = spans(spec, q, seed), walk(spec, q, seed)
    factors = {poly_key(f) for f, _ in inst.fact.factors}
    for vec, w_mask, perp_mask in every_divisor(basis):
        sub = subs[vec]
        w, perp = (span(inst.n, [basis.rows[a] for a in mask_rows(mask)]) for mask in (w_mask, perp_mask))
        assert w == sub == kernel_of_poly(inst.g, divisor_poly(inst.fact.factors, vec))
        assert perp == orth_complement(sub, inst.space)
        if w_mask & ~perp_mask:
            continue
        slow_space, slow_m = subquotient_by_definition(sub, inst.space, inst.g)
        fast_space, fast_m = induced_subquotient(basis, w_mask, perp_mask)
        assert nondegenerate_space(fast_space) == fast_space
        assert fast_space.n == slow_space.n == inst.n - 2 * sub.dim
        assert charpoly(fast_m) == charpoly(slow_m)
        if poly_key(charpoly(fast_m)) in factors:
            fast = dl_fixed_points(fast_space, fast_m, seed=seed)
            assert len(fast) == len(dl_fixed_points(slow_space, slow_m, seed=seed))


@pytest.mark.parametrize("spec,q,seed", EVEN)
def test_lagrangian_count_equals_complement_oracle(spec, q, seed):
    inst = instance(spec, q, seed)
    lagrangians = [
        vec for vec, sub in spans(spec, q, seed).items()
        if sub.dim == inst.n // 2 and orth_complement(sub, inst.space) == sub
    ]
    assert fl_check(inst)[1] == len(lagrangians)


def test_g_in_the_adapted_basis_equals_per_representative_solves():
    for spec, q, seed in GRID[::3] + WIDE_Q[::4]:
        inst = instance(spec, q, seed)
        basis = walk(spec, q, seed)
        assert basis.g == quotient_by_solves(inst.g, Subspace(inst.n, ()), basis.rows)


@pytest.mark.parametrize("spec,q,seed", GRID + WIDE_Q)
def test_batched_quotient_equals_per_representative_solves(spec, q, seed):
    # g on every invariant W in two bases, the lattice rows and the echelon
    # rows, and on W-perp for the isotropic W: one echelon form against one
    # solve per row
    inst, basis = instance(spec, q, seed), walk(spec, q, seed)
    zero = Subspace(inst.n, ())
    subs = spans(spec, q, seed)
    for vec, w, perp in every_divisor(basis):
        row_sets = [[basis.rows[a] for a in mask_rows(w)], list(subs[vec].rows)]
        if not w & ~perp:
            row_sets.append([basis.rows[a] for a in mask_rows(perp)])
        for rows in row_sets:
            if rows:
                assert in_basis(inst.g, rows) == quotient_by_solves(inst.g, zero, rows)


@pytest.mark.parametrize("spec,q,seed", WIDE_Q)
def test_afl_identity_at_the_other_tabled_q_and_above_the_cap(spec, q, seed):
    report = afl_verdict(instance(spec, q, seed), cross_check=True)
    assert [c.name for c in report.checks if not c.ok] == []


def test_batched_quotient_rejects_non_invariant_span():
    inst = instance("cp:1:1,sp:1:1", 3, 0)
    line = (gf.one(3, 2), gf.one(3, 2), gf.one(3, 2))
    assert solve_in_rows([line], list(inst.g.apply(line))) is None
    with pytest.raises(InputError, match="invariant"):
        in_basis(inst.g, [line])
