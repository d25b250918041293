"""Hermitian forms on F_{q^2}-spaces and the geometric walk in one adapted basis.

Convention, fixed once for the whole artifact and its JSON schema: the form
is linear in the first argument and conjugate-linear in the second,
h(x, y) = x^T G conj(y), so conjugate symmetry reads transpose(G) = conj(G).

A form is its Gram matrix G, a Matrix (MinusculeInstance.space), and an
anti-involution tau is the matrix S of the conjugate-linear map
x -> S conj(x) (MinusculeInstance.tau); its three axioms (involutive,
conjugates g to g^{-1}, anti-isometry) translate into the matrix identities
validated here.

The walk runs in the basis B of linalg.invariant_subspaces, in which every
g-invariant subspace W and its W-perp are sets of rows, one bitmask each,
and one depth-first walk of the chain prefix tables yields both for every
isotropic divisor and no other (AdaptedBasis.divisors): only H = B G
conj(B)^T and g written in B are formed here, once per instance, and H is
tested for full rank once.  A stratum's subquotient is a slice of both,
with no rank test of its own: for H nondegenerate and W isotropic the
radical of W-perp is W, so H is nondegenerate on the slice, the rows in
W-perp but not in W (induced_subquotient); the engine slices only the
strata whose eigenlines it recounts.
"""

from __future__ import annotations

from .errors import InputError, InvariantError, Record
from .linalg import Lattice, Matrix, in_basis, rref


def validate_space(gram: Matrix) -> Matrix:
    """Certify conjugate symmetry and nondegeneracy of a Gram matrix, and
    return it."""
    if gram.n != gram.ncols:
        raise InputError("Gram matrix must be square")
    if gram.transpose() != gram.conj():
        raise InvariantError("gram is not conjugate-symmetric")
    return nondegenerate_space(gram)


def nondegenerate_space(gram: Matrix) -> Matrix:
    """Certify nondegeneracy, by one echelon form, of a Gram matrix known to
    be square and conjugate-symmetric, and return it."""
    if len(rref(gram.rows)[1]) != gram.n:
        raise InvariantError("gram is degenerate")
    return gram


def gram_of_rows(gram: Matrix, rows) -> Matrix:
    """The matrix [h(a, b)] over the given rows, the product R G conj(R)^T."""
    if not rows:
        return Matrix(gram.p, gram.level, ())
    r = Matrix.from_rows(gram.p, gram.level, rows)
    return r @ gram @ r.conj().transpose()


def is_unitary(m: Matrix, gram: Matrix) -> bool:
    """h(Mx, My) = h(x, y) for all x, y, as one Gram identity."""
    if m.n != gram.n:
        raise InputError("dimension mismatch")
    return m.transpose() @ gram @ m.conj() == gram


def validate_anti_involution(s: Matrix, gram: Matrix, g: Matrix) -> None:
    """Certify that x -> S conj(x) is an involution inverting g and an
    anti-isometry of the form G."""
    ident = Matrix.identity(s.p, s.level, gram.n)
    if s @ s.conj() != ident:
        raise InvariantError("anti-involution is not involutive")
    # g is invertible (unitary for a nondegenerate form) and conj(S) = S^{-1}
    # by the check above, so S conj(g) conj(S) = g^{-1} iff g S conj(g) = S
    if g @ s @ g.conj() != s:
        raise InvariantError("anti-involution does not conjugate g to its inverse")
    if s.transpose() @ gram @ s.conj() != gram.conj():
        raise InvariantError("anti-involution is not an anti-isometry")


# ---------------------------------------------------------------------------
# isotropy and subquotients as slices of one adapted basis


def is_isotropic(rows, gram: Matrix) -> bool:
    """h vanishes on W x W for W the span of rows, tested as the one product
    W G conj(W)^T."""
    return gram_of_rows(gram, rows).is_zero


class AdaptedBasis(Record):
    """A basis B adapted to every primary chain of g, with H = B G conj(B)^T.

    Each lattice member W(vec) is the span of a set of rows of B, the first
    vec[i] deg P_i rows of each chain i, and so is the g-invariant W-perp:
    the rows whose row of H vanishes on W, as B is a basis.  Isotropy and
    subquotients are thus row sets and slices of H and of g written in B; no
    stratum computes a kernel or solves anything, and divisors() is the one
    way to an isotropic member: its exponents come from the tables' own
    keys, so no prefix can spill into the next chain.

    rows is B, gram the Matrix H, and column c of the Matrix g holds the
    B-coordinates of g B[c]; chains is the lattice's, one (offset, deg P_i,
    a_i) per factor.  prefixes, one table per chain from exponent k in
    0..a_i to the row mask of the chain's first k deg P_i rows and the AND
    over them of the columns of H (bit a of column c set iff H[a][c] = 0),
    is derived, so it is left out of equality, hash, repr and pickle."""

    _fields = ("rows", "gram", "g", "chains")
    __slots__ = (*_fields, "prefixes")

    def __init__(self, rows, gram: Matrix, g: Matrix, chains: tuple[tuple[int, int, int], ...]):
        Record.__init__(self, rows, gram, g, chains)
        h, n = gram.rows, gram.n
        prefixes = []
        for off, d, a in chains:
            perp = (1 << n) - 1
            table = {0: (0, perp)}
            for k in range(1, a + 1):
                for c in range(off + (k - 1) * d, off + k * d):
                    perp &= sum(1 << r for r in range(n) if h[r][c].is_zero)
                table[k] = (((1 << k * d) - 1) << off, perp)
            prefixes.append(table)
        object.__setattr__(self, "prefixes", tuple(prefixes))

    def divisors(self):
        """Every isotropic divisor as (vec, W, W-perp), W and W-perp row
        bitmasks of B, in lexicographic exponent order, with InvariantError
        unless W-perp has n - dim W rows: a depth-first walk over the chains'
        prefix tables (exponents 0..a_i in order), W the OR and W-perp the AND
        of the masks so far.  A larger prefix only grows W and shrinks W-perp,
        so a chain's loop ends at its first prefix with W not inside W-perp."""
        n, tables = self.gram.n, self.prefixes

        def walk(j, vec, w, perp):
            if j == len(tables):
                if perp.bit_count() != n - w.bit_count():
                    raise InvariantError("orthogonal complement is not spanned by adapted basis rows")
                yield vec, w, perp
                return
            for k, (wk, pk) in tables[j].items():
                wk, pk = w | wk, perp & pk
                if wk & ~pk:
                    break
                yield from walk(j + 1, (*vec, k), wk, pk)

        return walk(0, (), 0, (1 << n) - 1)


def adapted_basis(lattice: Lattice, gram: Matrix, g: Matrix) -> AdaptedBasis:
    """H and g written in the basis B of lattice = invariant_subspaces(g, pairs).

    H is tested for full rank here, the one nondegeneracy test of the walk:
    every slice of induced_subquotient inherits it."""
    rows = lattice.rows
    return AdaptedBasis(rows, nondegenerate_space(gram_of_rows(gram, rows)), in_basis(g, rows), lattice.chains)


def _slice(m: Matrix, idx) -> Matrix:
    return Matrix(m.p, m.level, tuple(tuple([m.rows[a][b] for b in idx]) for a in idx))


def induced_subquotient(basis: AdaptedBasis, w: int, perp: int) -> tuple[Matrix, Matrix]:
    """The Gram matrix of W-perp/W for W isotropic, with the endomorphism g
    induces there: the slices of H and of g in B on the rows in W-perp but
    not in W, w and perp as AdaptedBasis.divisors yields them.  Its
    characteristic polynomial is the middle factor of the filtration
    0 < W < W-perp < V.

    The slice is nondegenerate with no test of its own.  The mask count has
    certified that the rows W-perp span the complement, and H is
    nondegenerate (adapted_basis); for W isotropic the radical of W-perp is
    W-perp cap W-perp-perp = W-perp cap W = W, so H is nondegenerate on every
    complement of W in W-perp, the span of the slice rows among them (L. C.
    Grove, Classical Groups and Geometric Algebra, AMS GSM 39, 2002)."""
    if w & ~perp:
        raise InputError("subspace is not isotropic")
    r = [a for a in range(basis.gram.n) if (perp ^ w) >> a & 1]
    # a principal slice of the validated H is conjugate-symmetric already
    return _slice(basis.gram, r), _slice(basis.g, r)
