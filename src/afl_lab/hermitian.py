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
    if gram.n and gram.det().is_zero:
        raise InvariantError("gram is degenerate")
    return HermitianSpace(gram)


def herm_product(space: HermitianSpace, x, y) -> gf.FieldElem:
    gy = space.gram.apply([gf.conj(c) for c in y])
    acc = gf.zero(space.p, space.level)
    for a, b in zip(x, gy):
        acc = acc + a * b
    return acc


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
    if s @ g.conj() @ s.conj() != g.inverse():
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
    return all(
        herm_product(space, a, b).is_zero for a in w.rows for b in w.rows
    )


def _solve_in_rows(rows, target):
    """Coefficients expressing target as a combination of the given rows."""
    if not rows:
        return [] if all(c.is_zero for c in target) else None
    n = len(target)
    aug = [list(col) for col in zip(*rows)] if rows else []
    aug = [row + [t] for row, t in zip(aug, target)]
    red, pivots = rref(aug)
    k = len(rows)
    if k in pivots:
        return None  # inconsistent
    coeffs = [None] * k
    for r, pc in enumerate(pivots):
        coeffs[pc] = red[r][k]
    p, level = rows[0][0].p, rows[0][0].level
    return [c if c is not None else gf.zero(p, level) for c in coeffs]


def restrict_to_invariant(m: Matrix, w: Subspace) -> Matrix:
    """Matrix of M on an invariant subspace, in the echelon basis of W."""
    rows = []
    for r in w.rows:
        coeffs = _solve_in_rows(list(w.rows), list(m.apply(r)))
        if coeffs is None:
            raise InputError("subspace is not invariant")
        rows.append(coeffs)
    # rows[a][b] = coefficient of w_b in M w_a; transpose to act on columns
    return Matrix.from_rows(m.p, m.level, list(zip(*rows))) if rows else Matrix(m.p, m.level, ())


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
    """Action induced by M on span(W + reps)/W, in the coset basis reps."""
    rows = []
    basis = list(w.rows) + list(reps)
    for r in reps:
        coeffs = _solve_in_rows(basis, list(m.apply(r)))
        if coeffs is None:
            raise InputError("representatives do not span an invariant subspace")
        rows.append(coeffs[w.dim :])
    return Matrix.from_rows(m.p, m.level, list(zip(*rows))) if rows else Matrix(m.p, m.level, ())


def induced_subquotient(w: Subspace, space: HermitianSpace, m: Matrix):
    """Hermitian space on W-perp/W with the endomorphism M induces there.

    W must be isotropic and M-invariant; the result has dimension
    dim V - 2 dim W, is nondegenerate, and its characteristic polynomial is
    the middle factor of the filtration 0 < W < W-perp < V.
    """
    if not is_isotropic(w, space):
        raise InputError("subspace is not isotropic")
    _ = restrict_to_invariant(m, w)  # raises if W is not invariant
    wp = orth_complement(w, space)
    if not w.is_subset(wp):
        raise AssertionError("isotropic subspace escaped its complement")
    reps = complete_basis(list(w.rows), list(wp.rows))
    if len(reps) != space.dim - 2 * w.dim:
        raise AssertionError("complement completion has the wrong size")
    gram_rows = [[herm_product(space, a, b) for b in reps] for a in reps]
    sub_space = validate_space(Matrix.from_rows(space.p, space.level, gram_rows))
    induced = quotient_matrix(m, w, reps)
    return sub_space, induced
