"""Hermitian forms on F_{q^2}-spaces and the geometric walk in one adapted basis.

Convention, fixed once for the whole artifact and its JSON schema: the form
is linear in the first argument and conjugate-linear in the second,
h(x, y) = x^T G conj(y), so conjugate symmetry reads transpose(G) = conj(G).

An anti-involution is stored as the matrix S of the conjugate-linear map
x -> S conj(x); its three axioms (involutive, conjugates g to g^{-1},
anti-isometry) translate into the matrix identities validated here.

The walk runs in the basis B of linalg.invariant_subspaces, in which every
g-invariant subspace is a set of rows: only H = B G conj(B)^T and g written
in B are formed here, once per instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InputError, InvariantError
from .linalg import Lattice, Matrix, in_basis, rref


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
    return nondegenerate_space(gram)


def nondegenerate_space(gram: Matrix) -> HermitianSpace:
    """Certify nondegeneracy, by one echelon form, of a Gram matrix known to
    be square and conjugate-symmetric."""
    if len(rref(gram.rows)[1]) != gram.n:
        raise InvariantError("gram is degenerate")
    return HermitianSpace(gram)


def gram_of_rows(space: HermitianSpace, rows) -> Matrix:
    """The matrix [h(a, b)] over the given rows, the product R G conj(R)^T."""
    if not rows:
        return Matrix(space.p, space.level, ())
    r = Matrix.from_rows(space.p, space.level, rows)
    return r @ space.gram @ r.conj().transpose()


def is_unitary(m: Matrix, space: HermitianSpace) -> bool:
    """h(Mx, My) = h(x, y) for all x, y, as one Gram identity."""
    if m.n != space.dim:
        raise InputError("dimension mismatch")
    return m.transpose() @ space.gram @ m.conj() == space.gram


@dataclass(frozen=True)
class AntiInvolution:
    """Conjugate-linear involution x -> S conj(x)."""

    mat: Matrix


def validate_anti_involution(tau: AntiInvolution, space: HermitianSpace, g: Matrix) -> None:
    s = tau.mat
    n = space.dim
    ident = Matrix.identity(s.p, s.level, n)
    if s @ s.conj() != ident:
        raise InvariantError("anti-involution is not involutive")
    # g is invertible (unitary for a nondegenerate form) and conj(S) = S^{-1}
    # by the check above, so S conj(g) conj(S) = g^{-1} iff g S conj(g) = S
    if g @ s @ g.conj() != s:
        raise InvariantError("anti-involution does not conjugate g to its inverse")
    if s.transpose() @ space.gram @ s.conj() != space.gram.conj():
        raise InvariantError("anti-involution is not an anti-isometry")


# ---------------------------------------------------------------------------
# isotropy and subquotients as slices of one adapted basis


def is_isotropic(rows, space: HermitianSpace) -> bool:
    """h vanishes on W x W for W the span of rows, tested as the one product
    W G conj(W)^T."""
    return gram_of_rows(space, rows).is_zero


@dataclass(frozen=True)
class AdaptedBasis:
    """A basis B adapted to every primary chain of g, with H = B G conj(B)^T.

    Each lattice member W(m) is the span of the rows coords[m] of B, and so
    is the g-invariant W-perp: the rows whose row of H vanishes on W, as B is
    a basis.  Isotropy and subquotients are thus row sets and slices of H and
    of g written in B; no stratum computes a kernel or solves anything.
    W-perp is the AND over c in W of the column masks of H, bit a of mask c
    set iff H[a][c] = 0."""

    rows: tuple  # B
    gram: Matrix  # H
    g: Matrix  # column c holds the B-coordinates of g B[c]
    coords: dict[tuple[int, ...], tuple[int, ...]]
    masks: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows, n = self.gram.rows, self.gram.n
        masks = tuple(sum(1 << a for a in range(n) if rows[a][c].is_zero) for c in range(n))
        object.__setattr__(self, "masks", masks)

    def _perp_mask(self, vec) -> int:
        w = self.coords[vec]
        out = (1 << self.gram.n) - 1
        for c in w:
            out &= self.masks[c]
        if out.bit_count() != self.gram.n - len(w):
            raise InvariantError("orthogonal complement is not spanned by adapted basis rows")
        return out

    def perp(self, vec) -> tuple[int, ...]:
        mask = self._perp_mask(vec)
        return tuple(a for a in range(self.gram.n) if mask >> a & 1)

    def isotropic(self, vec) -> bool:
        """W inside W-perp; is_isotropic is the definition."""
        mask = self._perp_mask(vec)
        return all(mask >> c & 1 for c in self.coords[vec])


def adapted_basis(lattice: Lattice, space: HermitianSpace, g: Matrix) -> AdaptedBasis:
    """H and g written in the basis B of lattice = invariant_subspaces(g, fact)."""
    rows = lattice.rows
    return AdaptedBasis(rows, gram_of_rows(space, rows), in_basis(g, rows), lattice.coords)


def _slice(m: Matrix, idx) -> Matrix:
    return Matrix.from_rows(m.p, m.level, [[m.rows[a][b] for b in idx] for a in idx])


def induced_subquotient(basis: AdaptedBasis, vec):
    """Hermitian space on W-perp/W for W = W(vec) isotropic, with the
    endomorphism g induces there: the slices of H and of g in B on the rows
    in W-perp but not in W.  Its characteristic polynomial is the middle
    factor of the filtration 0 < W < W-perp < V."""
    w = set(basis.coords[vec])
    wp = basis.perp(vec)
    if not w <= set(wp):
        raise InputError("subspace is not isotropic")
    r = [a for a in wp if a not in w]
    # a principal slice of the validated H is conjugate-symmetric already
    return nondegenerate_space(_slice(basis.gram, r)), _slice(basis.g, r)
