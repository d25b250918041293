import math
import random

import pytest

from afl_lab import gf, hermitian
from afl_lab.errors import InputError, InvariantError
from afl_lab.forge import build_block_instance, parse_signature
from afl_lab.hermitian import (
    AdaptedBasis,
    adapted_basis,
    gram_of_rows,
    induced_subquotient,
    is_isotropic,
    is_unitary,
    nondegenerate_space,
    validate_anti_involution,
    validate_space,
)
from afl_lab.linalg import Matrix, charpoly, rref
from afl_lab.poly import Poly, star
from conftest import random_matrix
from oracles import (
    Subspace,
    complete_basis,
    divisor_exponents,
    divisor_poly,
    divisors_by_filter,
    every_divisor,
    kernel,
    kernel_of_poly,
    lattice_spans,
    mask_rows,
    matrix_sum,
    member_rows,
    quotient_by_solves,
    solve_in_rows,
    span,
)
from test_linalg import checked_lattice, det


def herm_product(space: Matrix, x, y) -> gf.FieldElem:
    """h(x, y) = x^T G conj(y), one pair at a time: the definition the
    batched Gram products are checked against."""
    gy = space.apply([gf.conj(c) for c in y])
    acc = gf.zero(space.p, space.level)
    for a, b in zip(x, gy):
        acc = acc + a * b
    return acc


def restrict_to_invariant(m: Matrix, w: Subspace) -> Matrix:
    """Matrix of M on an invariant subspace, in the echelon basis of W."""
    rows = []
    for r in w.rows:
        coeffs = solve_in_rows(list(w.rows), list(m.apply(r)))
        if coeffs is None:
            raise InputError("subspace is not invariant")
        rows.append(coeffs)
    # rows[a][b] = coefficient of w_b in M w_a; transpose to act on columns
    return Matrix.from_rows(m.p, m.level, list(zip(*rows))) if rows else Matrix(m.p, m.level, ())


def orth_complement(w: Subspace, space: Matrix) -> Subspace:
    """W-perp = {x : h(x, w) = 0 for all w in W}, as the kernel of the rows
    G conj(w): the definition the adapted-basis complement is checked against."""
    if w.dim == 0:
        return Subspace(space.n, Matrix.identity(space.p, space.level, space.n).rows)
    eq_rows = [space.apply([gf.conj(c) for c in r]) for r in w.rows]
    return kernel(Matrix.from_rows(space.p, space.level, eq_rows))


def subquotient_by_definition(w: Subspace, space: Matrix, m: Matrix):
    """Hermitian space on W-perp/W and the action M induces there, in the
    standard basis: the complement as a kernel, an invariance pass, coset
    representatives completed from W-perp, their Gram matrix, and one
    quotient solve.  The oracle for the slices of induced_subquotient."""
    wp = orth_complement(w, space)
    if not all(wp.contains(r) for r in w.rows):
        raise InputError("subspace is not isotropic")
    if not all(w.contains(m.apply(r)) for r in w.rows):
        raise InputError("subspace is not invariant")
    reps = complete_basis(list(w.rows), list(wp.rows))
    assert len(reps) == space.n - 2 * w.dim
    return validate_space(gram_of_rows(space, reps)), quotient_by_solves(m, w, reps)


def perp_by_scan(basis, vec) -> tuple[int, ...]:
    """W-perp by rescanning H: the rows a with H[a][c] = 0 for every c in W,
    the chain prefixes of vec, with the same count check as the masks."""
    w = member_rows(basis, vec)
    out = tuple(a for a, row in enumerate(basis.gram.rows) if all(row[c].is_zero for c in w))
    if len(out) != basis.gram.n - len(w):
        raise InvariantError("orthogonal complement is not spanned by adapted basis rows")
    return out


def assert_mask_perp_equals_scan(basis):
    """The prefix tables against the chain prefixes and the row scan, on
    every divisor, and the walk against the filtered full product."""
    for vec, w, perp in every_divisor(basis):
        assert mask_rows(w) == member_rows(basis, vec), vec
        assert mask_rows(perp) == perp_by_scan(basis, vec), vec
    assert list(basis.divisors()) == divisors_by_filter(basis)


def masks_of(basis) -> dict:
    """W and W-perp of every divisor, isotropic or not, as row masks, by
    exponent vector, from the full product of the prefix tables."""
    return {vec: (w, perp) for vec, w, perp in every_divisor(basis)}


def walk_of(inst):
    """Every invariant subspace of an instance as a canonical subspace, by
    divisor, and the adapted basis of its lattice."""
    lattice = checked_lattice(inst.g, inst.fact.factors)
    return lattice_spans(lattice), adapted_basis(lattice, inst.space, inst.g)


def hyperbolic_plane(p=3):
    z, o = gf.zero(p, 2), gf.one(p, 2)
    return validate_space(Matrix.from_rows(p, 2, [[z, o], [o, z]]))


# ---------------------------------------------------------------------------
# validation


def test_identity_gram_is_valid():
    space = validate_space(Matrix.identity(3, 2, 3))
    assert space.n == 3


def test_non_conjugate_symmetric_rejected():
    c = gf.one(3, 2) + gf.gen(3, 2)  # not in F_p
    z = gf.zero(3, 2)
    g = Matrix.from_rows(3, 2, [[gf.one(3, 2), z], [z, c]])
    with pytest.raises(InvariantError, match="conjugate-symmetric"):
        validate_space(g)


def test_degenerate_rejected():
    z = gf.zero(3, 2)
    with pytest.raises(InvariantError, match="degenerate"):
        validate_space(Matrix.from_rows(3, 2, [[z, z], [z, z]]))


def gram_of_rank(p, n, rank, rng):
    """P^T D conj(P) for a random invertible P and D = diag(d_1, ..., d_n),
    d_i in F_p^* for i < rank and 0 after: a Hermitian Gram matrix of that rank."""
    pm = random_matrix(p, 2, n, rng)
    while det(pm).is_zero:
        pm = random_matrix(p, 2, n, rng)
    z = gf.zero(p, 2)
    d = [[gf.from_base(p, 2, rng.randrange(1, p)) if i == j < rank else z for j in range(n)] for i in range(n)]
    return pm.transpose() @ Matrix.from_rows(p, 2, d) @ pm.conj()


@pytest.mark.parametrize("p", [3, 5, 17])
def test_full_rank_agrees_with_the_det_oracle(p):
    rng = random.Random(f"rank:{p}")
    for n in range(5):
        for _ in range(3):
            a = random_matrix(p, 2, n, rng)
            gram = matrix_sum(a, a.transpose().conj())
            assert (len(rref(gram.rows)[1]) == n) == (not det(gram).is_zero)
            for rank in range(n + 1):
                gram = gram_of_rank(p, n, rank, rng)
                assert len(rref(gram.rows)[1]) == rank
                assert det(gram).is_zero == (rank < n)
                if rank == n:
                    assert validate_space(gram).n == n
                else:
                    with pytest.raises(InvariantError, match="gram is degenerate"):
                        validate_space(gram)


# ---------------------------------------------------------------------------
# unitarity


def test_identity_is_unitary():
    space = validate_space(Matrix.identity(3, 2, 2))
    assert is_unitary(Matrix.identity(3, 2, 2), space)


def test_hyperbolic_diag_pair_is_unitary():
    space = hyperbolic_plane()
    lam = gf.one(3, 2) + gf.gen(3, 2)
    mu = gf.conj(lam).inverse()
    z = gf.zero(3, 2)
    m = Matrix.from_rows(3, 2, [[lam, z], [z, mu]])
    assert is_unitary(m, space)


def test_non_norm_one_diag_fails():
    c = gf.one(3, 2) + gf.gen(3, 2)  # order 8: c^{q+1} != 1
    z = gf.zero(3, 2)
    space = validate_space(Matrix.identity(3, 2, 2))
    m = Matrix.from_rows(3, 2, [[c, z], [z, gf.one(3, 2)]])
    assert not is_unitary(m, space)


# ---------------------------------------------------------------------------
# anti-involution axioms


def _not_inverting():
    # g = [[1, b], [0, 1]] is unitary for the hyperbolic form when b + conj(b)
    # = 0, and the swap S is an involutive anti-isometry, but S conj(g) conj(S)
    # is the lower unipotent [[1, 0], [-b, 1]], not g^{-1} = [[1, -b], [0, 1]]
    z, o, b = gf.zero(3, 2), gf.one(3, 2), gf.gen(3, 2)
    assert (b + gf.conj(b)).is_zero and not b.is_zero
    g = Matrix.from_rows(3, 2, [[o, b], [z, o]])
    swap = Matrix.from_rows(3, 2, [[z, o], [o, z]])
    assert is_unitary(g, hyperbolic_plane())
    return hyperbolic_plane(), g, swap


def _not_anti_isometric():
    # S = [[0, s], [conj(s)^{-1}, 0]] is involutive and commutes with g = I,
    # but S^T conj(S) = diag(N(s)^{-1}, N(s)) differs from I when N(s) != 1
    z, s = gf.zero(3, 2), gf.one(3, 2) + gf.gen(3, 2)
    assert s * gf.conj(s) != gf.one(3, 2)
    tau = Matrix.from_rows(3, 2, [[z, s], [gf.conj(s).inverse(), z]])
    return validate_space(Matrix.identity(3, 2, 2)), Matrix.identity(3, 2, 2), tau


@pytest.mark.parametrize(
    "case,axiom",
    [
        (_not_inverting, "does not conjugate g to its inverse"),
        (_not_anti_isometric, "is not an anti-isometry"),
    ],
    ids=["not_inverting", "not_anti_isometric"],
)
def test_anti_involution_axiom_can_fail(case, axiom):
    space, g, s = case()
    with pytest.raises(InvariantError, match=axiom):
        validate_anti_involution(s, space, g)


# ---------------------------------------------------------------------------
# complements and isotropy


def test_complement_of_extremes():
    space = validate_space(Matrix.identity(3, 2, 3))
    zero = Subspace(3, ())
    assert orth_complement(zero, space).dim == 3
    full = span(3, Matrix.identity(3, 2, 3).rows)
    assert orth_complement(full, space).dim == 0


def test_isotropic_line_in_hyperbolic_plane_is_self_perp():
    space = hyperbolic_plane()
    line = span(2, [(gf.one(3, 2), gf.zero(3, 2))])
    assert is_isotropic(line.rows, space)
    assert orth_complement(line, space) == line


def test_complement_dims_and_double_perp(rng):
    inst = build_block_instance(parse_signature("cp:1:2,sp:1:1"), 3, 9)
    space = inst.space
    for vec, sub in lattice_spans(checked_lattice(inst.g, inst.fact.factors)).items():
        comp = orth_complement(sub, space)
        assert sub.dim + comp.dim == space.n
        assert orth_complement(comp, space) == sub


def test_zero_subspace_isotropic_full_not():
    space = validate_space(Matrix.identity(3, 2, 2))
    assert is_isotropic((), space)
    assert not is_isotropic(span(2, Matrix.identity(3, 2, 2).rows).rows, space)


# ---------------------------------------------------------------------------
# subquotients


def test_complete_basis_matches_greedy_rank_growth(rng):
    # reference: take each extension row in order when it raises the rank
    for _ in range(20):
        n = rng.randrange(1, 5)
        vecs = random_matrix(3, 2, n, rng).rows
        base = list(span(n, vecs[: rng.randrange(n + 1)]).rows)
        ext = [vecs[rng.randrange(n)] for _ in range(n + 2)]
        greedy = []
        for r in ext:
            if span(n, base + greedy + [r]).dim > len(base) + len(greedy):
                greedy.append(r)
        assert complete_basis(base, ext) == greedy


def test_subquotient_of_zero_is_identity():
    inst = build_block_instance(parse_signature("sp:1:3"), 3, 4)
    sub_space, induced = subquotient_by_definition(Subspace(3, ()), inst.space, inst.g)
    assert sub_space == inst.space
    assert induced == inst.g
    lattice, basis = walk_of(inst)
    zero = next(vec for vec in lattice if not any(vec))
    sub_space, induced = induced_subquotient(basis, *masks_of(basis)[zero])
    assert sub_space == basis.gram and induced == basis.g
    assert charpoly(induced) == charpoly(inst.g)


def test_subquotient_of_lagrangian_line_is_trivial():
    inst = build_block_instance(parse_signature("cp:1:1"), 3, 2)
    lattice, basis = walk_of(inst)
    vec, eigenline = next((vec, s) for vec, s in lattice.items() if s.dim == 1)
    sub_space, induced = subquotient_by_definition(eigenline, inst.space, inst.g)
    assert sub_space.n == 0 and induced.n == 0
    w, perp = masks_of(basis)[vec]
    assert w == perp
    sub_space, induced = induced_subquotient(basis, w, perp)
    assert sub_space.n == 0 and induced.n == 0


def test_subquotient_dim3_pair_block():
    inst = build_block_instance(parse_signature("cp:1:1,sp:1:1"), 3, 6)
    lattice, basis = walk_of(inst)
    vec, pair_line = next(
        (vec, s) for vec, s in lattice.items() if s.dim == 1 and is_isotropic(s.rows, inst.space)
    )
    for sub_space, induced in (
        subquotient_by_definition(pair_line, inst.space, inst.g),
        induced_subquotient(basis, *masks_of(basis)[vec]),
    ):
        assert sub_space.n == 1
        qcp = charpoly(induced)
        assert star(qcp) == qcp  # carries the self-paired eigenvalue


def test_subquotient_rejects_non_isotropic():
    inst = build_block_instance(parse_signature("sp:1:3"), 3, 4)
    full = span(3, Matrix.identity(3, 2, 3).rows)
    with pytest.raises(InputError):
        subquotient_by_definition(full, inst.space, inst.g)
    lattice, basis = walk_of(inst)
    whole = max(lattice)
    assert lattice[whole] == full
    with pytest.raises(InputError, match="not isotropic"):
        induced_subquotient(basis, *masks_of(basis)[whole])


def test_subquotient_rejects_isotropic_line_that_is_not_invariant():
    # only the standard-basis route can be handed a non-invariant W: the
    # adapted basis spans lattice members only
    inst = build_block_instance(parse_signature("cp:1:1"), 3, 2)
    z, o = gf.zero(3, 2), gf.one(3, 2)
    lines = [span(2, [(o, gf.elem_from_encoding(3, 2, c))]) for c in range(9)] + [span(2, [(z, o)])]
    line = next(
        w for w in lines
        if is_isotropic(w.rows, inst.space) and not w.contains(inst.g.apply(w.rows[0]))
    )
    with pytest.raises(InputError, match="not invariant"):
        subquotient_by_definition(line, inst.space, inst.g)


def test_subquotient_rejects_invariant_subspace_that_is_not_isotropic():
    inst = build_block_instance(parse_signature("cp:1:1,sp:1:1"), 3, 6)
    lattice, basis = walk_of(inst)
    bad = [vec for vec, s in lattice.items() if not is_isotropic(s.rows, inst.space)]
    assert any(0 < lattice[vec].dim < inst.n for vec in bad)
    masks = masks_of(basis)
    for vec in bad:
        w, perp = masks[vec]
        assert w & ~perp
        with pytest.raises(InputError, match="not isotropic"):
            subquotient_by_definition(lattice[vec], inst.space, inst.g)
        with pytest.raises(InputError, match="not isotropic"):
            induced_subquotient(basis, w, perp)


def test_complement_count_check_rejects_a_degenerate_form():
    # with H zeroed every row vanishes on W, so the candidate complement has
    # n members instead of n - dim W
    inst = build_block_instance(parse_signature("cp:1:1,sp:1:1"), 3, 6)
    basis = walk_of(inst)[1]
    zero = Matrix.from_rows(3, 2, [[gf.zero(3, 2)] * inst.n] * inst.n)
    broken = AdaptedBasis(basis.rows, zero, basis.g, basis.chains)  # columns from the zero H
    walk = broken.divisors()
    # W = 0 has every row as its complement; the next divisor is a line
    assert next(walk)[1:] == (0, (1 << inst.n) - 1)
    with pytest.raises(InvariantError, match="orthogonal complement"):
        next(walk)


@pytest.mark.parametrize("sig,q", [
    (",".join(["sp:1:1"] * 5), 31), ("cp:2:1,sp:1:1", 5), ("cp:1:2,cp:1:2,sp:1:3", 3),
])
def test_divisors_walk_every_exponent_vector_once_within_its_chains(sig, q):
    # the full product holds prod (a_i + 1) triples in divisor_exponents'
    # order, and every W is the union of its chains' prefixes: no prefix
    # spills into the next chain; the walk yields its isotropic ones
    inst = build_block_instance(parse_signature(sig), q, 0)
    basis = walk_of(inst)[1]
    triples = list(every_divisor(basis))
    assert len(triples) == math.prod(a + 1 for _, a in inst.fact.factors)
    assert [vec for vec, _, _ in triples] == list(divisor_exponents(inst.fact.factors))
    for vec, w, _ in triples:
        assert mask_rows(w) == member_rows(basis, vec), vec
    assert list(basis.divisors()) == [t for t in triples if not t[1] & ~t[2]]


def test_adapted_basis_rejects_a_degenerate_gram():
    # G with its last row and column zeroed, handed in unvalidated: H = B G
    # conj(B)^T is degenerate with it, and the one rank test refuses it
    inst = build_block_instance(parse_signature("cp:1:1,sp:1:1"), 3, 6)
    n, z = inst.n, gf.zero(3, 2)
    rows = [[z if n - 1 in (a, b) else x for b, x in enumerate(row)] for a, row in enumerate(inst.space.rows)]
    degenerate = Matrix.from_rows(3, 2, rows)
    lattice = checked_lattice(inst.g, inst.fact.factors)
    adapted_basis(lattice, inst.space, inst.g)
    with pytest.raises(InvariantError, match="gram is degenerate"):
        adapted_basis(lattice, degenerate, inst.g)


def test_subquotient_takes_no_echelon_form(monkeypatch):
    # every slice inherits nondegeneracy from H, which adapted_basis tested
    inst = build_block_instance(parse_signature("cp:1:2,sp:1:1"), 3, 1)
    lattice, basis = walk_of(inst)

    def no_rank_test(rows):
        raise AssertionError("induced_subquotient must not test a slice for rank")

    monkeypatch.setattr(hermitian, "rref", no_rank_test)
    strata = [(w, perp) for _, w, perp in basis.divisors()]
    slices = [induced_subquotient(basis, w, perp)[0] for w, perp in strata]
    monkeypatch.undo()
    assert len(strata) > 2
    for space in slices:
        assert nondegenerate_space(space) == space


def test_subquotient_rechecks_no_symmetry(monkeypatch):
    # the slices of the validated H are conjugate-symmetric by construction
    inst = build_block_instance(parse_signature("cp:1:1,sp:1:1"), 3, 6)
    lattice, basis = walk_of(inst)

    def no_symmetry_check(*_):
        raise AssertionError("induced_subquotient must not re-validate a slice")

    monkeypatch.setattr(Matrix, "transpose", no_symmetry_check)
    for vec, w, perp in basis.divisors():
        sub_space, _ = induced_subquotient(basis, w, perp)
        assert sub_space.n == inst.n - 2 * lattice[vec].dim
        assert nondegenerate_space(sub_space) == sub_space


def test_adapted_basis_spans_every_lattice_member():
    for sig, q, seed in [("cp:1:2,sp:1:1", 3, 1), ("cp:2:1,sp:1:1", 5, 2), ("sp:1:1,sp:1:2", 3, 0)]:
        inst = build_block_instance(parse_signature(sig), q, seed)
        lattice, basis = walk_of(inst)
        assert basis.gram == gram_of_rows(inst.space, basis.rows)
        for vec, w, _ in every_divisor(basis):
            sub = span(inst.n, [basis.rows[a] for a in mask_rows(w)])
            assert sub == lattice[vec] == kernel_of_poly(inst.g, divisor_poly(inst.fact.factors, vec))


def full_quotient_matrix(m: Matrix, w: Subspace) -> Matrix:
    """Action of M on V/W, with coset representatives completed from the
    standard basis in order."""
    n = m.n
    ident = Matrix.identity(m.p, m.level, n)
    reps = complete_basis(list(w.rows), list(ident.rows))
    return quotient_by_solves(m, w, reps)


def charpoly_filtration(m: Matrix, w: Subspace, space: Matrix):
    """The three factors charpoly(M|W), charpoly(M|W-perp/W), charpoly(M|V/W-perp)."""
    wp = orth_complement(w, space)
    inner = charpoly(restrict_to_invariant(m, w)) if w.dim else Poly.one(m.p, m.level)
    _, mid_m = subquotient_by_definition(w, space, m)
    mid = charpoly(mid_m) if mid_m.n else Poly.one(m.p, m.level)
    outer_m = full_quotient_matrix(m, wp)
    outer = charpoly(outer_m) if outer_m.n else Poly.one(m.p, m.level)
    return inner, mid, outer


def test_charpoly_multiplicativity_and_star_duality():
    for sig, q, seed in [("cp:1:2,sp:1:1", 3, 1), ("cp:2:1,sp:1:1", 5, 2), ("sp:1:3", 3, 3)]:
        inst = build_block_instance(parse_signature(sig), q, seed)
        for vec, sub in lattice_spans(checked_lattice(inst.g, inst.fact.factors)).items():
            if not is_isotropic(sub.rows, inst.space):
                continue
            inner, mid, outer = charpoly_filtration(inst.g, sub, inst.space)
            assert inner * mid * outer == charpoly(inst.g)
            assert star(mid) == mid
            if inner.degree > 0:
                assert star(inner) == outer


def test_herm_product_convention():
    # h is linear in the first slot, conjugate-linear in the second
    space = hyperbolic_plane()
    x = (gf.gen(3, 2), gf.one(3, 2))
    y = (gf.one(3, 2), gf.gen(3, 2))
    c = gf.gen(3, 2)
    left = herm_product(space, tuple(c * a for a in x), y)
    right = herm_product(space, x, tuple(c * a for a in y))
    assert left == c * herm_product(space, x, y)
    assert right == gf.conj(c) * herm_product(space, x, y)
    assert herm_product(space, y, x) == gf.conj(herm_product(space, x, y))
