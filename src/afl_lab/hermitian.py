"""Hermitian forms on F_{q^2}-spaces and the subquotient machinery.

Convention, fixed once for the whole artifact and its JSON schema: the form
is linear in the first argument and conjugate-linear in the second,
h(x, y) = x^T G conj(y), so conjugate symmetry reads transpose(G) = conj(G).

An anti-involution is stored as the matrix S of the conjugate-linear map
x -> S conj(x); its three axioms (involutive, conjugates g to g^{-1},
anti-isometry) translate into the matrix identities validated here.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import gf
from .errors import InputError, InvariantError
from .linalg import Matrix, Subspace, kernel, rref
from .poly import factor_pairs


@dataclass(frozen=True)
class HermitianSpace:
    gram: Matrix

    @property
    def dim(self) -> int:
        return self.gram.n

    @property
    def p(self) -> int:
        return self.gram.p

    @property
    def level(self) -> int:
        return self.gram.level


def validate_space(gram: Matrix) -> HermitianSpace:
    """Certify conjugate symmetry and nondegeneracy of a Gram matrix."""
    if gram.n != gram.ncols:
        raise InputError("Gram matrix must be square")
    if gram.transpose() != gram.conj():
        raise InvariantError("gram is not conjugate-symmetric")
    if len(rref(gram.rows)[1]) != gram.n:
        raise InvariantError("gram is degenerate")
    return HermitianSpace(gram)


def gram_of_rows(space: HermitianSpace, rows) -> Matrix:
    """The matrix [h(a, b)] over the given rows, the product R G conj(R)^T
    with G conj(b) formed once per row."""
    g_conj = Matrix.from_rows(space.p, space.level, [space.gram.apply([gf.conj(c) for c in b]) for b in rows])
    return Matrix.from_rows(space.p, space.level, [g_conj.apply(a) for a in rows])


def is_unitary(m: Matrix, space: HermitianSpace) -> bool:
    """h(Mx, My) = h(x, y) for all x, y, as one Gram identity."""
    if m.n != space.dim:
        raise InputError("dimension mismatch")
    return m.transpose() @ space.gram @ m.conj() == space.gram


@dataclass(frozen=True)
class AntiInvolution:
    """Conjugate-linear involution x -> S conj(x)."""

    mat: Matrix

    def act(self, v) -> tuple:
        return self.mat.apply([gf.conj(c) for c in v])


def validate_anti_involution(tau: AntiInvolution, space: HermitianSpace, g: Matrix) -> None:
    s = tau.mat
    n = space.dim
    ident = Matrix.identity(s.p, s.level, n)
    if s @ s.conj() != ident:
        raise InvariantError("anti-involution is not involutive")
    # g is invertible (unitary for a nondegenerate form), so S conj(g) conj(S)
    # = g^{-1} iff S conj(g) conj(S) g = I
    if s @ g.conj() @ s.conj() @ g != ident:
        raise InvariantError("anti-involution does not conjugate g to its inverse")
    if s.transpose() @ space.gram @ s.conj() != space.gram.conj():
        raise InvariantError("anti-involution is not an anti-isometry")


# ---------------------------------------------------------------------------
# complements, isotropy, subquotients


def orth_complement(w: Subspace, space: HermitianSpace) -> Subspace:
    """W-perp = {x : h(x, w) = 0 for all w in W}."""
    if w.ambient != space.dim:
        raise InputError("subspace does not live in this space")
    if w.dim == 0:
        rows = Matrix.identity(space.p, space.level, space.dim).rows
        return Subspace(space.dim, rows)
    # h(x, w) = sum_j x_j (G conj(w))_j, so each basis vector of W yields the
    # condition row G conj(w)
    eq_rows = [space.gram.apply([gf.conj(c) for c in r]) for r in w.rows]
    return kernel(Matrix.from_rows(space.p, space.level, eq_rows))


def is_isotropic(w: Subspace, space: HermitianSpace) -> bool:
    """h vanishes on W x W, tested as the one product W G conj(W)^T."""
    return gram_of_rows(space, w.rows).is_zero


def isotropic_divisors(lattice, fact, space: HermitianSpace) -> set[tuple[int, ...]]:
    """Divisor vectors of an invariant lattice whose subspace is isotropic.

    lattice is invariant_subspaces(g, fact).  Its members W(m) are direct
    sums of the primary chain members W(k e_i) = ker P_i(g)^k, so one basis B
    adapted to every chain (the first k deg P_i rows of chain i span
    W(k e_i)) turns isotropy of each W(m) into a zero principal block of the
    single Gram matrix H = B G conj(B)^T, the actual form in that basis.
    is_isotropic is the definition this is checked against.
    """
    pairs = factor_pairs(fact)
    basis = []
    offsets = []
    for i, (_, a) in enumerate(pairs):
        offsets.append(len(basis))
        chain = []
        for k in range(1, a + 1):
            unit = tuple(k if j == i else 0 for j in range(len(pairs)))
            chain += complete_basis(chain, lattice[unit].rows)
        basis += chain
    h = gram_of_rows(space, basis).rows
    out = set()
    for vec in lattice:
        idx = [off + r for off, (f, _), m in zip(offsets, pairs, vec) for r in range(m * f.degree)]
        if all(h[a][b].is_zero for a in idx for b in idx):
            out.add(vec)
    return out


def complete_basis(base_rows, extension_rows):
    """Extend a basis by the first echelon rows that enlarge the span.

    With every vector laid out as a column, a column is a pivot of the
    echelon form exactly when it lies outside the span of the columns before
    it, so the pivots past the base columns pick the same rows as adding
    the extension rows greedily in order."""
    k = len(base_rows)
    vectors = list(base_rows) + list(extension_rows)
    _, pivots = rref(list(zip(*vectors)))
    return [vectors[c] for c in pivots if c >= k]


def quotient_matrix(m: Matrix, w: Subspace, reps) -> Matrix:
    """Action induced by M on span(W + reps)/W, in the coset basis reps.

    Every image M r is solved for at once, as the right-hand sides of one
    echelon form of [W, reps | M reps] laid out as columns."""
    if not reps:
        return Matrix(m.p, m.level, ())
    basis = list(w.rows) + list(reps)
    k = len(basis)
    images = [m.apply(r) for r in reps]
    red, pivots = rref([list(b) + list(i) for b, i in zip(zip(*basis), zip(*images))])
    if pivots and pivots[-1] >= k:
        raise InputError("representatives do not span an invariant subspace")
    # coeffs[j][c] = coefficient of basis vector j in the image of reps[c]
    z = gf.zero(m.p, m.level)
    coeffs = [[z] * len(reps) for _ in range(k)]
    for r, pc in enumerate(pivots):
        coeffs[pc] = list(red[r][k:])
    return Matrix.from_rows(m.p, m.level, coeffs[w.dim :])


def induced_subquotient(w: Subspace, space: HermitianSpace, m: Matrix):
    """Hermitian space on W-perp/W with the endomorphism M induces there.

    W must be isotropic (W inside W-perp) and M-invariant; the result has
    dimension dim V - 2 dim W, is nondegenerate, and its characteristic
    polynomial is the middle factor of the filtration 0 < W < W-perp < V.
    """
    wp = orth_complement(w, space)
    if not w.is_subset(wp):
        raise InputError("subspace is not isotropic")
    if not all(w.contains(m.apply(r)) for r in w.rows):
        raise InputError("subspace is not invariant")
    reps = complete_basis(list(w.rows), list(wp.rows))
    if len(reps) != space.dim - 2 * w.dim:
        raise AssertionError("complement completion has the wrong size")
    return validate_space(gram_of_rows(space, reps)), quotient_matrix(m, w, reps)
