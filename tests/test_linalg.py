import dataclasses
import itertools
import random

import pytest

from afl_lab import gf, linalg
from afl_lab.errors import InputError
from afl_lab.forge import random_coxeter_instance
from afl_lab.linalg import Matrix, charpoly, invariant_subspaces, is_regular, null_basis, rref
from afl_lab.poly import Poly, divisor_exponents, factor_pairs, is_irreducible, plain_factor, poly_gcd
from conftest import poly_from_ints, random_matrix, random_monic, tables_with
from oracles import (
    Subspace,
    all_subspaces,
    divisor_poly,
    kernel_of_poly,
    lattice_spans,
    matrix_sum,
    naive_subspace_scan,
    span,
)


def jordan_block(p, level, lam, n):
    z, o = gf.zero(p, level), gf.one(p, level)
    rows = [[z] * n for _ in range(n)]
    for k in range(n):
        rows[k][k] = lam
        if k + 1 < n:
            rows[k][k + 1] = o
    return Matrix.from_rows(p, level, rows)


def det(m):
    """Determinant by forward elimination: the definition full rank is checked against."""
    n = m.n
    rows = [list(r) for r in m.rows]
    sign = 1
    acc = gf.one(m.p, m.level)
    for col in range(n):
        piv = next((r for r in range(col, n) if not rows[r][col].is_zero), None)
        if piv is None:
            return gf.zero(m.p, m.level)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            sign = -sign
        acc = acc * rows[col][col]
        inv = rows[col][col].inverse()
        for r in range(col + 1, n):
            if not rows[r][col].is_zero:
                f = rows[r][col] * inv
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return -acc if sign < 0 else acc


# ---------------------------------------------------------------------------
# charpoly


def test_charpoly_identity():
    one = gf.one(3, 2)
    f = Poly.x_minus(one) * Poly.x_minus(one) * Poly.x_minus(one)
    assert charpoly(Matrix.identity(3, 2, 3)) == f


def test_charpoly_companion_is_defining(rng):
    for _ in range(10):
        f = random_monic(3, 2, rng.randrange(1, 7), rng)
        assert charpoly(Matrix.companion(f)) == f


def test_charpoly_diag_i_minus_i():
    i = gf.gen(3, 2)
    z = gf.zero(3, 2)
    m = Matrix.from_rows(3, 2, [[i, z], [z, -i]])
    assert charpoly(m) == poly_from_ints(3, 2, [[1, 0], [0, 0], [1, 0]])


def test_charpoly_det_constant_term(rng):
    for _ in range(10):
        m = random_matrix(3, 2, 4, rng)
        cp = charpoly(m)
        d = det(m)
        assert cp.coeff(0) == d or cp.coeff(0) == -d
        sign = gf.from_base(3, 2, (-1) ** 4)
        assert d == sign * cp.coeff(0)


def test_cayley_hamilton(rng):
    for p in (3, 5):
        for n in (2, 3, 4):
            m = random_matrix(p, 2, n, rng)
            assert m.eval_poly(charpoly(m)).is_zero


# ---------------------------------------------------------------------------
# regularity: the seeded Krylov probe with its exact minimal-polynomial
# fallback is the oracle for the factorization-based is_regular


def poly_lcm(a: Poly, b: Poly) -> Poly:
    if a.is_zero or b.is_zero:
        return Poly.zero(a.p, a.level)
    return ((a * b) // poly_gcd(a, b)).monic()


def vector_annihilator(m: Matrix, v) -> Poly:
    """Monic polynomial of least degree with f(M) v = 0."""
    z = gf.zero(m.p, m.level)
    pivots: list[tuple[int, list, list]] = []  # (pivot col, vector, combo over M^i v)
    cur = list(v)
    j = 0
    while True:
        w = list(cur)
        c = [z] * j + [gf.one(m.p, m.level)]
        for piv, vec, cmb in pivots:
            if not w[piv].is_zero:
                f = w[piv]
                w = [a - f * b for a, b in zip(w, vec)]
                for i, b in enumerate(cmb):
                    c[i] = c[i] - f * b
        if all(a.is_zero for a in w):
            return Poly.from_elems(m.p, m.level, c)
        piv = next(i for i, a in enumerate(w) if not a.is_zero)
        inv = w[piv].inverse()
        w = [a * inv for a in w]
        c = [a * inv for a in c]
        pivots.append((piv, w, c))
        cur = list(m.apply(cur))
        j += 1


def minpoly(m: Matrix) -> Poly:
    n = m.n
    acc = Poly.one(m.p, m.level)
    ident = Matrix.identity(m.p, m.level, n)
    for i in range(n):
        acc = poly_lcm(acc, vector_annihilator(m, ident.rows[i]))
        if acc.degree == n:
            break
    return acc


def krylov_rank(m: Matrix, v) -> int:
    rows = []
    cur = tuple(v)
    for _ in range(m.n):
        rows.append(cur)
        cur = m.apply(cur)
    red, _ = rref(rows)
    return len(red)


def probe_is_regular(m: Matrix, seed=0) -> bool:
    """True iff the minimal polynomial equals the characteristic polynomial.

    A seeded random vector of full Krylov rank certifies regularity at once;
    otherwise the exact minimal polynomial decides, so a False is never wrong.
    """
    n = m.n
    rng = random.Random(f"regular:{m.p}:{m.level}:{seed}")
    v = [gf.elem(m.p, m.level, [rng.randrange(m.p) for _ in range(m.level)]) for _ in range(n)]
    if krylov_rank(m, v) == n:
        return True
    return minpoly(m).degree == n


def exact_is_regular(m: Matrix) -> bool:
    return is_regular(m, plain_factor(charpoly(m), 0))


def test_identity_2x2_not_regular():
    ident = Matrix.identity(3, 2, 2)
    assert not probe_is_regular(ident)
    assert not exact_is_regular(ident)


def test_companion_is_regular(rng):
    f = random_monic(3, 2, 4, rng)
    assert probe_is_regular(Matrix.companion(f))
    assert exact_is_regular(Matrix.companion(f))


def test_jordan_block_is_regular():
    j = jordan_block(3, 2, gf.gen(3, 2), 3)
    assert probe_is_regular(j)
    assert exact_is_regular(j)
    e1 = (gf.one(3, 2), gf.zero(3, 2), gf.zero(3, 2))
    assert krylov_rank(j.transpose(), e1) == 3


def test_minpoly_agrees_with_charpoly_iff_regular(rng):
    for _ in range(10):
        m = random_matrix(3, 2, 3, rng)
        assert (minpoly(m) == charpoly(m)) == probe_is_regular(m)


def test_minpoly_divides_charpoly(rng):
    for _ in range(10):
        m = random_matrix(3, 2, 3, rng)
        assert charpoly(m) % minpoly(m) == Poly.zero(3, 2)


@pytest.mark.parametrize("p", [3, 5])
def test_exact_regularity_matches_probe_on_random_matrices(p, rng):
    for _ in range(30):
        m = random_matrix(p, 2, rng.randrange(1, 5), rng)
        assert exact_is_regular(m) == probe_is_regular(m)


def _quadratic_irreducible(p):
    enc = gf.elem_from_encoding
    return next(
        f
        for c0 in range(1, p * p)
        for c1 in range(p * p)
        if is_irreducible(f := Poly.from_elems(p, 2, [enc(p, 2, c0), enc(p, 2, c1), gf.one(p, 2)]))
    )


def _derogatory(name):
    one, i = gf.one(3, 2), gf.gen(3, 2)
    if name == "identity":
        return Matrix.identity(3, 2, 3)
    if name == "diag_1_1_i":
        return Matrix.block_diag([Matrix.identity(3, 2, 2), Matrix.identity(3, 2, 1).scale(i)])
    if name == "jordan_2_1":
        return Matrix.block_diag([jordan_block(3, 2, i + one, 2), jordan_block(3, 2, i + one, 1)])
    block = Matrix.companion(_quadratic_irreducible(3))
    return Matrix.block_diag([block, block])


@pytest.mark.parametrize("name", ["identity", "diag_1_1_i", "jordan_2_1", "equal_companions"])
def test_exact_regularity_matches_probe_on_derogatory_matrices(name):
    m = _derogatory(name)
    assert not probe_is_regular(m)
    assert not exact_is_regular(m)


def regular_by_definition(m: Matrix, fact) -> bool:
    """Oracle for is_regular: dim ker P_i(M) = deg P_i on every factor,
    squarefree ones included."""
    return all(m.n - len(rref(m.eval_poly(f).rows)[1]) == f.degree for f, _ in factor_pairs(fact))


def jordan_sum(blocks):
    return Matrix.block_diag([jordan_block(3, 2, lam, k) for lam, k in blocks])


def _jordan_shapes():
    one, i = gf.one(3, 2), gf.gen(3, 2)
    return [
        ([(one, 3)], True),
        ([(one, 2), (i, 1)], True),
        ([(one, 1), (i, 1), (i + one, 1)], True),
        ([(one, 2), (i, 2), (i + one, 1)], True),
        ([(one, 1), (one, 1)], False),
        ([(one, 2), (one, 1)], False),
        ([(one, 2), (one, 2)], False),
        ([(one, 1), (i, 1), (one, 1)], False),
        ([(one, 2), (i, 2), (i, 1)], False),
        ([(one, 3), (i, 1), (i + one, 2), (i + one, 1)], False),
    ]


@pytest.mark.parametrize("blocks,regular", _jordan_shapes())
def test_is_regular_equals_definition_on_jordan_sums(blocks, regular):
    m = jordan_sum(blocks)
    fact = plain_factor(charpoly(m), 0)
    assert is_regular(m, fact) == regular_by_definition(m, fact) == regular


def random_conjugate(m: Matrix, rng) -> Matrix:
    """P M P^-1 for a random invertible P, with P^-1 read off rref([P | I])."""
    n = m.n
    ident = Matrix.identity(m.p, m.level, n)
    while True:
        pm = random_matrix(m.p, m.level, n, rng)
        red, pivots = rref([list(r) + list(e) for r, e in zip(pm.rows, ident.rows)])
        if pivots[:n] == tuple(range(n)):
            inv = Matrix.from_rows(m.p, m.level, [r[n:] for r in red[:n]])
            return pm @ m @ inv


@pytest.mark.parametrize("p", [3, 5])
def test_is_regular_equals_definition_on_random_matrices(p, rng):
    # dense random matrices are almost always regular; block sums of random
    # blocks, one block repeated half the time, give derogatory ones
    verdicts = []
    for k in range(40):
        if k % 2:
            m = random_matrix(p, 2, rng.randrange(1, 5), rng)
        else:
            b = random_matrix(p, 2, rng.randrange(1, 3), rng)
            c = b if k % 4 == 0 else random_matrix(p, 2, rng.randrange(1, 3), rng)
            m = random_conjugate(Matrix.block_diag([b, c]), rng)
        fact = plain_factor(charpoly(m), 0)
        verdicts.append(regular_by_definition(m, fact))
        assert is_regular(m, fact) == verdicts[-1]
    assert True in verdicts and False in verdicts


def test_is_regular_equals_definition_on_every_2x2_over_f9():
    elems = [gf.elem_from_encoding(3, 2, k) for k in range(9)]
    derogatory = 0
    for a, b, c, d in itertools.product(elems, repeat=4):
        m = Matrix.from_rows(3, 2, [[a, b], [c, d]])
        fact = plain_factor(charpoly(m), 0)
        regular = is_regular(m, fact)
        assert regular == regular_by_definition(m, fact)
        derogatory += not regular
    assert derogatory == 9  # the scalar matrices


def test_squarefree_charpoly_costs_is_regular_no_eval_poly(monkeypatch):
    calls = []
    eval_poly = Matrix.eval_poly

    def counting(self, f):
        calls.append(f)
        return eval_poly(self, f)

    monkeypatch.setattr(Matrix, "eval_poly", counting)
    one, i = gf.one(3, 2), gf.gen(3, 2)
    m = jordan_sum([(one, 1), (i, 1), (i + one, 1)])
    assert is_regular(m, plain_factor(charpoly(m), 0))
    f = _quadratic_irreducible(3)
    assert is_regular(Matrix.companion(f), [(f, 1)])
    inst = random_coxeter_instance(3, 5, 0)
    assert is_regular(inst.g, inst.fact)
    assert calls == []
    m = jordan_sum([(one, 2), (i, 1), (i + one, 3)])
    assert is_regular(m, plain_factor(charpoly(m), 0))
    assert sorted(f.degree for f in calls) == [1, 1]  # one per repeated factor


# ---------------------------------------------------------------------------
# kernels


def test_kernel_of_one_is_zero_subspace(rng):
    m = random_matrix(3, 2, 3, rng)
    assert kernel_of_poly(m, Poly.one(3, 2)).dim == 0


def test_kernel_of_charpoly_is_everything(rng):
    m = random_matrix(3, 2, 3, rng)
    assert kernel_of_poly(m, charpoly(m)).dim == 3


def test_kernel_of_jordan_square():
    lam = gf.gen(3, 2)
    j = jordan_block(3, 2, lam, 3)
    q = Poly.x_minus(lam) * Poly.x_minus(lam)
    ker = kernel_of_poly(j, q)
    assert ker.dim == 2
    e1 = (gf.one(3, 2), gf.zero(3, 2), gf.zero(3, 2))
    e2 = (gf.zero(3, 2), gf.one(3, 2), gf.zero(3, 2))
    assert ker.contains(e1) and ker.contains(e2)


def test_kernel_dim_equals_divisor_degree_for_regular(rng):
    for _ in range(10):
        m = random_matrix(3, 2, 3, rng)
        if not probe_is_regular(m):
            continue
        for f, a in plain_factor(charpoly(m), 0):
            for e in range(1, a + 1):
                q = Poly.one(3, 2)
                for _ in range(e):
                    q = q * f
                assert kernel_of_poly(m, q).dim == q.degree


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    return span(a.ambient, list(a.rows) + list(b.rows))


def subspace_intersection(a: Subspace, b: Subspace) -> Subspace:
    if a.dim == 0 or b.dim == 0:
        return Subspace(a.ambient, ())
    # Zassenhaus: rows of [A|A] and [B|0]; echelon rows with zero left half
    # carry intersection vectors in the right half.
    p = a.rows[0][0].p
    level = a.rows[0][0].level
    z = gf.zero(p, level)
    n = a.ambient
    stacked = [list(r) + list(r) for r in a.rows] + [list(r) + [z] * n for r in b.rows]
    red, _ = rref(stacked)
    vecs = [row[n:] for row in red if all(c.is_zero for c in row[:n])]
    return span(n, vecs)


def test_kernel_lattice_morphisms(rng):
    # lcm -> subspace sum, gcd -> intersection
    for _ in range(8):
        m = random_matrix(3, 2, 4, rng)
        f = random_monic(3, 2, 2, rng)
        g = random_monic(3, 2, 2, rng)
        kf, kg = kernel_of_poly(m, f), kernel_of_poly(m, g)
        assert kernel_of_poly(m, poly_lcm(f, g)) == subspace_sum(kf, kg)
        assert kernel_of_poly(m, poly_gcd(f, g)) == subspace_intersection(kf, kg)


# ---------------------------------------------------------------------------
# invariant subspace lattice


def lattice_by_spans(m: Matrix, fact) -> dict:
    """The lattice by definition, every divisor's span formed up front: one
    echelon form of the concatenated kernels ker P_i(M)^{m_i}."""
    pairs = factor_pairs(fact)
    chains = [[kernel_of_poly(m, divisor_poly([(f, a)], (k,))) for k in range(a + 1)] for f, a in pairs]
    return {
        vec: span(m.n, [r for chain, k in zip(chains, vec) for r in chain[k].rows])
        for vec in divisor_exponents(fact)
    }


def assert_lattice_equals_spans(m, fact):
    """Keys, their order and len of the row-set lattice against the eager
    oracle, its rows a basis, and the span of every member's rows."""
    lattice, eager = invariant_subspaces(m, fact), lattice_by_spans(m, fact)
    assert len(lattice) == len(eager)
    assert list(lattice.coords) == list(eager)
    assert len(lattice.rows) == m.n == span(m.n, lattice.rows).dim
    assert all(len(lattice.coords[vec]) == sub.dim for vec, sub in eager.items())
    assert lattice_spans(lattice) == eager


def test_invariant_subspaces_of_jordan_chain():
    j = jordan_block(3, 2, gf.gen(3, 2), 3)
    subs = lattice_spans(invariant_subspaces(j, plain_factor(charpoly(j), 0)))
    dims = sorted(s.dim for s in subs.values())
    assert dims == [0, 1, 2, 3]


def test_invariant_subspaces_three_eigenvalues():
    one, i = gf.one(3, 2), gf.gen(3, 2)
    z = gf.zero(3, 2)
    m = Matrix.from_rows(3, 2, [[one, z, z], [z, i, z], [z, z, -i]])
    subs = invariant_subspaces(m, plain_factor(charpoly(m), 0))
    assert len(subs) == 8


def test_invariant_subspaces_requires_regular():
    with pytest.raises(InputError):
        invariant_subspaces(Matrix.identity(3, 2, 2), plain_factor(charpoly(Matrix.identity(3, 2, 2)), 0))


@pytest.mark.parametrize("diag", [(0, 0), (0, 0, 1)], ids=["identity_2x2", "diag_1_1_i"])
def test_lattice_decides_regularity_without_the_probe(diag, monkeypatch):
    # the primary kernels alone must reject a non-cyclic matrix
    z, entries = gf.zero(3, 2), [gf.one(3, 2), gf.gen(3, 2)]
    n = len(diag)
    m = Matrix.from_rows(3, 2, [[entries[d] if i == j else z for j in range(n)] for i, d in enumerate(diag)])
    fact = plain_factor(charpoly(m), 0)

    def probe(*args, **kwargs):
        raise AssertionError("is_regular must not run inside the lattice walk")

    monkeypatch.setattr(linalg, "is_regular", probe)
    with pytest.raises(InputError, match="regular"):
        invariant_subspaces(m, fact)


def test_lazy_lattice_equals_spans_on_jordan_and_random_regular(rng):
    ms = [jordan_block(3, 2, gf.gen(3, 2), 3)] + [random_matrix(3, 2, 3, rng) for _ in range(6)]
    for m in ms:
        if probe_is_regular(m):
            assert_lattice_equals_spans(m, plain_factor(charpoly(m), 0))


def test_lazy_lattice_is_read_only_and_rejects_other_keys():
    m = jordan_block(3, 2, gf.gen(3, 2), 2)
    lattice = invariant_subspaces(m, plain_factor(charpoly(m), 0))
    with pytest.raises(KeyError):
        lattice.coords[(3,)]
    with pytest.raises(dataclasses.FrozenInstanceError):
        lattice.rows = ()


def test_divisibility_matches_inclusion(rng):
    for _ in range(5):
        m = random_matrix(3, 2, 3, rng)
        if not probe_is_regular(m):
            continue
        subs = lattice_spans(invariant_subspaces(m, plain_factor(charpoly(m), 0)))
        vecs = list(subs)
        for a in vecs:
            for b in vecs:
                divides = all(x <= y for x, y in zip(a, b))
                assert divides == all(subs[b].contains(r) for r in subs[a].rows)


# ---------------------------------------------------------------------------
# brute-force oracle


def test_naive_scan_dim1():
    m = Matrix.identity(3, 2, 1)
    assert len(naive_subspace_scan(m)) == 2


def test_naive_scan_identity_2x2_over_f9():
    # 0, V, and q^2 + 1 = 10 lines
    assert len(naive_subspace_scan(Matrix.identity(3, 2, 2))) == 12


def test_naive_scan_irreducible_charpoly():
    m = Matrix.companion(_quadratic_irreducible(3))
    assert len(naive_subspace_scan(m)) == 2


def test_naive_scan_guard():
    with pytest.raises(InputError):
        naive_subspace_scan(Matrix.identity(5, 2, 2))
    with pytest.raises(InputError):
        naive_subspace_scan(Matrix.identity(3, 2, 5))


def test_all_subspaces_count_is_gaussian():
    # n = 2 over F_9: 1 + 10 + 1
    assert sum(1 for _ in all_subspaces(3, 2, 2)) == 12


def test_rref_canonical(rng):
    for _ in range(10):
        rows = [[gf.elem(3, 2, [rng.randrange(3), rng.randrange(3)]) for _ in range(4)] for _ in range(3)]
        sub1 = span(4, rows)
        shuffled = rows[::-1]
        sub2 = span(4, shuffled)
        assert sub1 == sub2


# ---------------------------------------------------------------------------
# echelon forms against two references: a dense elimination over the field,
# and an elimination over plain ints mod p for systems with F_p entries


def dense_rref(rows):
    """Reduced row echelon form updating every entry of every row."""
    mat = [list(r) for r in rows]
    if not mat:
        return (), ()
    ncols = len(mat[0])
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(mat)) if not mat[i][col].is_zero), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = mat[r][col].inverse()
        mat[r] = [a * inv for a in mat[r]]
        for i in range(len(mat)):
            if i != r and not mat[i][col].is_zero:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    return tuple(tuple(row) for row in mat[:r]), tuple(pivots)


def int_rref(rows, p):
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][col] % p), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = pow(mat[r][col], -1, p)
        mat[r] = [(a * inv) % p for a in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] % p:
                f = mat[i][col]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def int_kernel_basis(rows, ncols, p):
    """Free-column null basis of an F_p system given as int rows."""
    red, pivots = int_rref(rows, p)
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for j in free:
        v = [0] * ncols
        v[j] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-red[r][j]) % p
        basis.append(v)
    return basis


def random_rows(p, level, nrows, ncols, density, rng):
    def entry():
        if rng.random() < density:
            return gf.elem(p, level, [rng.randrange(p) for _ in range(level)])
        return gf.zero(p, level)

    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    rows[rng.randrange(nrows)] = [gf.zero(p, level)] * ncols
    return rows


@pytest.mark.parametrize("level", [2, 14])
@pytest.mark.parametrize("density", [0.25, 1.0], ids=["sparse", "dense"])
def test_rref_matches_dense_reference(level, density, rng):
    shapes = [(3, 5), (5, 5), (7, 4)] if level == 2 else [(3, 4), (5, 3)]
    for nrows, ncols in shapes:
        for _ in range(4 if level == 2 else 1):
            rows = random_rows(3, level, nrows, ncols, density, rng)
            assert rref(rows) == dense_rref(rows)
    # repeated rows leave zero rows behind in the elimination
    rows = random_rows(3, level, 3, 4, density, rng)
    assert rref(rows + rows) == dense_rref(rows + rows)


class InverseLog:
    """The inverse table of a tabled field, logging each element it inverts."""

    def __init__(self, t, log):
        self.t, self.log = t, log

    def __getitem__(self, enc):
        self.log.append(self.t.elems[enc])
        return self.t.inv[enc]


@pytest.mark.parametrize("level", [2, 14])
def test_rref_of_rows_leading_with_one_inverts_nothing(level, monkeypatch, rng):
    # above the cap rref inverts by FieldElem.inverse, over a tabled field
    # by the inverse table gf.index_rows hands it: both are logged
    p, inverses = 3, []
    real_inverse, real_index_rows = gf.FieldElem.inverse, gf.index_rows

    def counting(self):
        inverses.append(self)
        return real_inverse(self)

    def logging_index_rows(*vectors):
        enc = real_index_rows(*vectors)
        if enc is None:
            return None
        t, rows = enc
        return tables_with(t, inv=InverseLog(t, inverses)), rows

    monkeypatch.setattr(gf.FieldElem, "inverse", counting)
    monkeypatch.setattr(gf, "index_rows", logging_index_rows)
    tail = [gf.elem(p, level, [rng.randrange(p) for _ in range(level)]) for _ in range(3)]
    row = [gf.zero(p, level), gf.one(p, level)] + tail
    assert rref([row]) == ((tuple(row),), (1,))
    assert inverses == []
    # a pivot other than one is rescaled by its inverse
    two = gf.from_base(p, level, 2)
    scaled = [two * a for a in row]
    assert rref([scaled]) == rref([row])
    assert inverses == [two]


def int_systems(p, rng):
    """(name, int rows, ncols): rank 0, full rank, zero rows, tall, wide."""
    def rand(nrows, ncols):
        return [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)]

    square = [[rng.randrange(p) if j > i else int(i == j) for j in range(5)] for i in range(5)]
    rng.shuffle(square)
    low_rank = rand(2, 6)
    tall = [[(a * x + b * y) % p for x, y in zip(*low_rank)] for a, b in rand(8, 2)]
    with_zero_rows = rand(4, 6) + [[0] * 6, [0] * 6]
    rng.shuffle(with_zero_rows)
    return [
        ("rank_0", [[0] * 4 for _ in range(3)], 4),
        ("full_rank", square, 5),
        ("zero_rows", with_zero_rows, 6),
        ("tall", tall, 6),
        ("wide", rand(3, 7), 7),
    ]


@pytest.mark.parametrize("p", [3, 5, 17])
def test_null_basis_matches_int_oracle(p, rng):
    base = [gf.from_base(p, 2, c) for c in range(p)]
    for name, rows, ncols in int_systems(p, rng) + int_systems(p, rng):
        m = Matrix.from_rows(p, 2, [[base[c] for c in r] for r in rows])
        got = [[gf.encode_int(a) for a in v] for v in null_basis(m)]
        assert got == int_kernel_basis(rows, ncols, p), name
        assert all(m.apply(v).count(base[0]) == m.n for v in null_basis(m))


# ---------------------------------------------------------------------------
# Horner evaluation and sparse products, against their definitions


def power_sum(m: Matrix, f: Poly) -> Matrix:
    """sum c_i M^i with M^i by repeated matmul: the definition of f(M)."""
    acc = Matrix.identity(m.p, m.level, m.n).scale(gf.zero(m.p, m.level))
    power = Matrix.identity(m.p, m.level, m.n)
    for c in f.coeffs:
        acc = matrix_sum(acc, power.scale(c))
        power = power @ m
    return acc


@pytest.mark.parametrize("p", [3, 5])
def test_eval_poly_matches_power_sum(p, rng):
    m = random_matrix(p, 2, 4, rng)
    zero_poly = Poly.from_elems(p, 2, [])
    assert zero_poly.is_zero and m.eval_poly(zero_poly).is_zero
    const = Poly.from_elems(p, 2, [gf.elem(p, 2, [1, 2])])
    assert m.eval_poly(const) == power_sum(m, const)
    for degree in range(1, 5):
        for _ in range(3):
            f = random_monic(p, 2, degree, rng, nonzero_constant=False).scale(gf.elem(p, 2, [2, 1]))
            assert f.degree == degree
            assert m.eval_poly(f) == power_sum(m, f)


@pytest.mark.parametrize("degree", range(0, 6))
def test_eval_poly_matmul_count(degree, rng, monkeypatch):
    # Horner starts at f_d M + f_{d-1} I: d - 1 matrix products, none for
    # d <= 1; over F_9 they are products on encodings, above the cap matmuls
    for level in (2, 14):
        m = random_matrix(3, level, 4, rng)
        f = random_monic(3, level, degree, rng, nonzero_constant=False) if degree else Poly.one(3, level)
        f = f.scale(gf.elem(3, level, [2, 1]))
        calls = []
        matmul, indexed = Matrix.__matmul__, linalg._matmul_indexed
        monkeypatch.setattr(Matrix, "__matmul__", lambda a, b: calls.append(1) or matmul(a, b))
        monkeypatch.setattr(linalg, "_matmul_indexed", lambda t, a, b: calls.append(1) or indexed(t, a, b))
        value = m.eval_poly(f)
        monkeypatch.undo()
        assert len(calls) == max(degree - 1, 0)
        assert value == power_sum(m, f)


def unskipped_dot(r, v):
    acc = gf.zero(r[0].p, r[0].level)
    for a, b in zip(r, v):
        acc = acc + a * b
    return acc


@pytest.mark.parametrize("density", [0.0, 0.3, 1.0], ids=["all_zero", "sparse", "dense"])
def test_apply_and_matmul_match_unskipped_dot(density, rng):
    p, n = 3, 5
    def entry():
        return gf.elem(p, 2, [rng.randrange(p), rng.randrange(p)]) if rng.random() < density else gf.zero(p, 2)
    for _ in range(5):
        m = Matrix.from_rows(p, 2, [[entry() for _ in range(n)] for _ in range(n)])
        rows = [list(r) for r in m.rows]
        rows[0] = [gf.zero(p, 2)] * n  # an all-zero row still yields the zero element
        m = Matrix.from_rows(p, 2, rows)
        other = random_matrix(p, 2, n, rng)
        v = other.rows[0]
        assert m.apply(v) == tuple(unskipped_dot(r, v) for r in m.rows)
        assert m.apply(v)[0] == gf.zero(p, 2)
        cols = list(zip(*other.rows))
        assert (m @ other).rows == tuple(tuple(unskipped_dot(r, c) for c in cols) for r in m.rows)


def per_term_dot(r, v):
    """The per-term dot product linalg used before the packed one: zero row
    entries skipped, each product reduced and added on its own."""
    acc = None
    for a, b in zip(r, v):
        if not a.is_zero:
            acc = a * b if acc is None else acc + a * b
    return gf.zero(r[0].p, r[0].level) if acc is None else acc


ABOVE_CAP = [(3, 6), (5, 4), (7, 4), (17, 2), (16381, 2), (16381, 6)]


@pytest.mark.parametrize("p,level", ABOVE_CAP, ids=[f"F{p}^{lv}" for p, lv in ABOVE_CAP])
def test_packed_apply_matmul_and_eval_poly_match_per_term_dots(p, level):
    rng = random.Random(f"packed-linalg:{p}:{level}")
    n = 5

    def entry(density):
        if rng.random() < density:
            return gf.elem(p, level, [rng.randrange(p) for _ in range(level)])
        return gf.zero(p, level)

    for density in (0.0, 0.3, 1.0):
        m = Matrix.from_rows(p, level, [[entry(density) for _ in range(n)] for _ in range(n)])
        other = random_matrix(p, level, n, rng)
        v = other.rows[0]
        assert m.apply(v) == tuple(per_term_dot(r, v) for r in m.rows)
        cols = list(zip(*other.rows))
        assert (m @ other).rows == tuple(tuple(per_term_dot(r, c) for c in cols) for r in m.rows)
    f = poly_from_ints(p, level, [[rng.randrange(p) for _ in range(level)] for _ in range(4)])
    expected = Matrix.identity(p, level, n).scale(f.coeffs[-1])
    for c in reversed(f.coeffs[:-1]):
        cols = list(zip(*other.rows))
        expected = Matrix.from_rows(p, level, [[per_term_dot(r, col) for col in cols] for r in expected.rows])
        expected = matrix_sum(expected, Matrix.identity(p, level, n).scale(c))
    assert other.eval_poly(f) == expected
