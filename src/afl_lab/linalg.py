"""Exact linear algebra over the tower fields.

Matrices act on column vectors; vectors are plain tuples of FieldElem.
A subspace is a set of rows of one basis, never an echelon form of its own,
so nothing here compares or hashes a subspace.

A matrix lives in one field: Matrix.from_rows, the constructor for rows
from outside, checks every entry's (p, level) once; kernels whose entries
come from a checked matrix or from gf construct Matrix directly.

The characteristic polynomial goes through a deterministic Hessenberg
reduction followed by the classical recurrence on leading principal minors.
Over a tabled field (gf.TABLE_CAP) the kernels here (products, Krylov rows,
rref and charpoly) take their operands' encodings from gf.index_rows once
per call, run the same loops on ints through the field's tables and wrap
the result in FieldElems once; above the cap they run the FieldElem loops,
which the tests also hold the encoded ones against.  conj, apply and
eval_poly have one FieldElem loop on every field: eval_poly's products are
the encoded ones of @, and no command applies M to a tabled vector outside
krylov_rows.
Regularity (cyclicity) is decided exactly on the factorization of the
characteristic polynomial: M is regular iff dim ker P_i(M) = deg P_i for every
irreducible factor P_i, which can fail only where P_i is a repeated factor.
The invariant subspace lattice of a regular M is read off one cyclic vector:
one basis B whose rows are u(M) x for the chain polynomials u, and every
divisor of the characteristic polynomial is a union of chain prefixes of B.
No kernel is taken and regularity is not decided again; a matrix with no
cyclic vector is refused when the draws for one run out.
"""

from __future__ import annotations

import math
import operator
import random
from itertools import accumulate

from . import gf
from .errors import InputError, InvariantError, Record
from .poly import Poly

# Draws of a cyclic vector before invariant_subspaces refuses M.  For a
# regular M a uniform x is cyclic with probability prod (1 - Q^(-deg P_i))
# over the distinct irreducible factors P_i of its characteristic polynomial
# over F_Q.  For an invertible M over F_{q^2} with n <= 81 that is at least
# 0.249 (q = 3: the 8 linear and 36 quadratic factors over F_9), so all 64
# draws fail with probability about 1e-8; for any M, the ninth linear factor
# T included, at least 0.22, and about 1e-7.
CYCLIC_DRAWS = 64

# Most divisors invariant_subspaces accepts: N_MAX bounds the dimension, not
# the lattice (k distinct linear factors have 2^k divisors).  README gives
# the timed runs behind it.
DIVISOR_MAX = 2**17


class Matrix(Record):
    """Matrix over F_{p^level}: rows is a tuple of equal-length tuples of
    FieldElem."""

    __slots__ = _fields = ("p", "level", "rows")

    def __init__(self, p: int, level: int, rows: tuple[tuple[gf.FieldElem, ...], ...]):
        if len(set(map(len, rows))) > 1:
            raise InputError("ragged matrix")
        _set_p(self, p)
        _set_level(self, level)
        _set_rows(self, rows)

    # ----- constructors -------------------------------------------------
    @staticmethod
    def from_rows(p, level, rows) -> "Matrix":
        """The matrix of rows from outside: InputError unless every entry
        lies in F_{p^level}."""
        rows = tuple(tuple(r) for r in rows)
        gf.check_field(p, level, *rows)
        return Matrix(p, level, rows)

    @staticmethod
    def identity(p, level, n) -> "Matrix":
        z, o = gf.zero(p, level), gf.one(p, level)
        return Matrix.from_rows(p, level, [[o if i == j else z for j in range(n)] for i in range(n)])

    @staticmethod
    def companion(f: Poly) -> "Matrix":
        """Companion matrix of a monic polynomial (acting on column vectors)."""
        if not f.is_monic or f.degree < 1:
            raise InputError("companion matrix requires a monic polynomial of positive degree")
        n = f.degree
        z = gf.zero(f.p, f.level)
        o = gf.one(f.p, f.level)
        rows = [[z] * n for _ in range(n)]
        for i in range(n - 1):
            rows[i + 1][i] = o
        for i in range(n):
            rows[i][n - 1] = -f.coeff(i)
        return Matrix.from_rows(f.p, f.level, rows)

    @staticmethod
    def block_diag(blocks: list["Matrix"]) -> "Matrix":
        p, level = blocks[0].p, blocks[0].level
        n = sum(b.n for b in blocks)
        z = gf.zero(p, level)
        rows = [[z] * n for _ in range(n)]
        off = 0
        for b in blocks:
            for i, r in enumerate(b.rows):
                rows[off + i][off : off + b.n] = r
            off += b.n
        return Matrix.from_rows(p, level, rows)

    # ----- shape and access ----------------------------------------------
    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def _check(self, other: "Matrix"):
        if self.p != other.p or self.level != other.level:
            raise InputError("matrices over different fields")

    # ----- arithmetic -----------------------------------------------------
    def __matmul__(self, other):
        self._check(other)
        if self.ncols != other.n:
            raise InputError("shape mismatch")
        enc = gf.index_rows(*self.rows, *other.rows)
        if enc is not None:
            t, rows = enc
            return Matrix(self.p, self.level, _wrap(t, _matmul_indexed(t, rows[: self.n], rows[self.n :])))
        cols = list(zip(*other.rows))  # the packed dot checks every entry's field
        return Matrix(self.p, self.level, tuple(tuple([gf.dot(r, c) for c in cols]) for r in self.rows))

    def scale(self, c: gf.FieldElem) -> "Matrix":
        # each product checks c against the matrix's field
        return Matrix(self.p, self.level, tuple(tuple([a * c for a in r]) for r in self.rows))

    def transpose(self) -> "Matrix":
        return Matrix(self.p, self.level, tuple(zip(*self.rows)))

    def conj(self) -> "Matrix":
        """Entrywise q-power conjugation."""
        return Matrix(self.p, self.level, tuple(tuple(map(gf.frob_q, r)) for r in self.rows))

    def apply(self, v) -> tuple:
        if len(v) != self.ncols:
            raise InputError("vector length mismatch")
        return tuple(gf.dot(r, v) for r in self.rows)

    @property
    def is_zero(self) -> bool:
        return all(a.is_zero for r in self.rows for a in r)

    def eval_poly(self, f: Poly) -> "Matrix":
        """Horner evaluation f(M), starting from f_d M + f_{d-1} I.

        A polynomial of degree d costs d - 1 matrix products, none for
        d <= 1, and each constant is added on the diagonal only."""
        if f.degree < 1:
            return Matrix.identity(self.p, self.level, self.n).scale(f.coeff(0))
        acc = _plus_diagonal(self.scale(f.leading), f.coeffs[-2])
        for c in reversed(f.coeffs[:-2]):
            acc = _plus_diagonal(acc @ self, c)
        return acc

    def to_json(self):
        return [[list(a.coeffs) for a in r] for r in self.rows]


_set_p, _set_level, _set_rows = Matrix._setters


def _plus_diagonal(m: Matrix, c: gf.FieldElem) -> Matrix:
    # M + c I by n additions, each checking the field of c
    return Matrix(m.p, m.level, tuple(r[:i] + (r[i] + c,) + r[i + 1 :] for i, r in enumerate(m.rows)))


# ---------------------------------------------------------------------------
# kernels on encodings: int rows and the tables t of gf.index_rows


def _wrap(t, rows) -> tuple:
    get = t.elems.__getitem__
    return tuple(tuple(map(get, r)) for r in rows)


def _matmul_indexed(t, a, b):
    # row i of a b is the combination of the rows of b by row i of a; plain
    # loops, as a comprehension per row costs more than it saves at n <= 9
    add, mul, out = t.add, t.mul, []
    for r in a:
        acc = [0] * len(b[0])
        for x, row in zip(r, b):
            if x:
                mx, j = mul[x], 0
                for y in row:
                    acc[j] = add[acc[j]][mx[y]]
                    j += 1
        out.append(acc)
    return out


def _rref_indexed(t, mat):
    # rref on encodings, step for step the FieldElem loop in rref; the pivot
    # row is zero left of col, so each update runs from col on
    sub, mul, inv = t.sub, t.mul, t.inv
    nrows, ncols = len(mat), len(mat[0])
    pivots = []
    r = 0
    for col in range(ncols):
        for piv in range(r, nrows):
            if mat[piv][col]:
                break
        else:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        prow = mat[r]
        if prow[col] != 1:  # a pivot of one is already scaled
            scale = mul[inv[prow[col]]]
            for j in range(col, ncols):
                prow[j] = scale[prow[j]]
        tail = prow[col:]
        for i, row in enumerate(mat):
            f = row[col]
            if f and i != r:
                mf, j = mul[f], col
                for b in tail:
                    row[j] = sub[row[j]][mf[b]]
                    j += 1
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return mat[:r], tuple(pivots)


# ---------------------------------------------------------------------------
# echelon forms, null bases and coordinates in a basis


def rref(rows) -> tuple[tuple, tuple[int, ...]]:
    """Reduced row echelon form; returns (rows, pivot columns).

    Over a tabled field the elimination runs on encodings; above the cap
    (and as the oracle for that) on FieldElems."""
    rows = list(rows)
    if not rows:
        return (), ()
    enc = gf.index_rows(*rows)
    if enc is not None:
        t, mat = enc
        red, pivots = _rref_indexed(t, mat)
        return _wrap(t, red), pivots
    mat = [list(r) for r in rows]
    ncols = len(mat[0])
    if ncols:  # raw rows, and no operation below meets a zero entry
        gf.check_field(mat[0][0].p, mat[0][0].level, *mat)
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(mat)) if not mat[i][col].is_zero), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        prow = mat[r]
        lead = prow[col]
        # the pivot row is zero left of col; only its nonzero entries update
        nz = [(j, prow[j]) for j in range(col, ncols) if not prow[j].is_zero]
        if lead != gf.one(lead.p, lead.level):  # a pivot of one is already scaled
            inv = lead.inverse()
            nz = [(j, b * inv) for j, b in nz]
            for j, b in nz:
                prow[j] = b
        for i, row in enumerate(mat):
            f = row[col]
            if i != r and not f.is_zero:
                for j, b in nz:
                    row[j] = row[j] - f * b
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    return tuple(tuple(row) for row in mat[:r]), tuple(pivots)


def null_basis(m: Matrix) -> list[tuple[gf.FieldElem, ...]]:
    """Basis of {v : M v = 0} with one vector per free column j of rref(M):
    1 at j, zero at the other free columns, minus column j of the echelon
    form at the pivot columns."""
    red, pivots = rref(m.rows)
    n = m.ncols
    free = [j for j in range(n) if j not in pivots]
    basis = []
    z, o = gf.zero(m.p, m.level), gf.one(m.p, m.level)
    for j in free:
        v = [z] * n
        v[j] = o
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][j]
        basis.append(tuple(v))
    return basis


def krylov_rows(m: Matrix, x) -> tuple:
    """The rows x, M x, ..., M^(n-1) x.  Over a tabled field M is encoded
    once and each step combines its columns on encodings."""
    if len(x) != m.ncols:
        raise InputError("vector length mismatch")
    enc = gf.index_rows(x, *m.rows)
    if enc is None:
        out = [tuple(x)]
        for _ in range(1, m.n):
            out.append(m.apply(out[-1]))
        return tuple(out)
    t, (v, *rows) = enc
    cols, out = list(zip(*rows)), [v]
    for _ in range(1, m.n):
        out.append(_matmul_indexed(t, [out[-1]], cols)[0])
    return _wrap(t, out)


def in_basis(m: Matrix, rows) -> Matrix:
    """M on span(rows), an M-invariant subspace, in the basis rows: column c
    holds the coordinates of M rows[c].

    Every image is solved for at once, as the right-hand sides of one
    echelon form of [rows | M rows] laid out as columns."""
    k = len(rows)
    images = (Matrix.from_rows(m.p, m.level, rows) @ m.transpose()).rows
    red, pivots = rref([b + i for b, i in zip(zip(*rows), zip(*images))])
    if pivots != tuple(range(k)):
        raise InputError("rows are not a basis of an invariant subspace")
    return Matrix(m.p, m.level, tuple(r[k:] for r in red))


# ---------------------------------------------------------------------------
# characteristic polynomial and regularity


def _charpoly_indexed(t, h):
    # charpoly on encodings, step for step the FieldElem loop in charpoly;
    # the polynomials of the recurrence are little-endian int lists
    add, sub, mul, inv = t.add, t.sub, t.mul, t.inv
    n = len(h)
    for j in range(n - 2):
        piv = next((r for r in range(j + 1, n) if h[r][j]), None)
        if piv is None:
            continue
        if piv != j + 1:
            h[j + 1], h[piv] = h[piv], h[j + 1]
            for row in h:
                row[j + 1], row[piv] = row[piv], row[j + 1]
        scale, prow = mul[inv[h[j + 1][j]]], h[j + 1]
        for r in range(j + 2, n):
            if not h[r][j]:
                continue
            mf, row = mul[scale[h[r][j]]], h[r]
            for c in range(j, n):  # prow is zero left of column j
                row[c] = sub[row[c]][mf[prow[c]]]
            for row in h:
                row[j + 1] = add[row[j + 1]][mf[row[r]]]
    chain = [[1]]
    for k in range(n):
        prev, shift = chain[k], mul[h[k][k]]
        cur = [0] + prev
        for i, b in enumerate(prev):
            cur[i] = sub[cur[i]][shift[b]]
        prod = 1
        for a in range(k - 1, -1, -1):
            prod = mul[prod][h[a + 1][a]]
            if not prod:  # every further term has the zero factor too
                break
            if h[a][k]:
                ms = mul[mul[h[a][k]][prod]]
                for i, b in enumerate(chain[a]):
                    cur[i] = sub[cur[i]][ms[b]]
        chain.append(cur)
    return chain[n]


def charpoly(m: Matrix) -> Poly:
    """Monic characteristic polynomial via Hessenberg reduction, on
    encodings over a tabled field."""
    n = m.n
    if n != m.ncols:
        raise InputError("characteristic polynomial of a non-square matrix")
    p, level = m.p, m.level
    enc = gf.index_rows(*m.rows)
    if enc is not None:
        t, h = enc
        return Poly(p, level, tuple(map(t.elems.__getitem__, _charpoly_indexed(t, h))))
    h = [list(r) for r in m.rows]
    for j in range(n - 2):
        piv = next((r for r in range(j + 1, n) if not h[r][j].is_zero), None)
        if piv is None:
            continue
        if piv != j + 1:
            h[j + 1], h[piv] = h[piv], h[j + 1]
            for row in h:
                row[j + 1], row[piv] = row[piv], row[j + 1]
        inv = h[j + 1][j].inverse()
        for r in range(j + 2, n):
            if h[r][j].is_zero:
                continue
            f = h[r][j] * inv
            h[r] = [a - f * b for a, b in zip(h[r], h[j + 1])]
            for k in range(n):
                h[k][j + 1] = h[k][j + 1] + f * h[k][r]
    # p_{k+1} = (T - h[k][k]) p_k - sum_a h[a][k] (prod_{b=a..k-1} h[b+1][b]) p_a
    chain = [Poly.one(p, level)]
    for k in range(n):
        t_shift = Poly.x_minus(h[k][k])
        cur = t_shift * chain[k]
        prod = gf.one(p, level)
        for a in range(k - 1, -1, -1):
            prod = prod * h[a + 1][a]
            if not h[a][k].is_zero:
                cur = cur - chain[a].scale(h[a][k] * prod)
        chain.append(cur)
    return chain[n]


def is_regular(m: Matrix, pairs) -> bool:
    """True iff M is cyclic, decided exactly from the factorization of its
    characteristic polynomial, the pairs (P_i, a_i): dim ker P_i(M) = deg P_i
    for every irreducible factor P_i, i.e. each primary component has a
    single elementary divisor.

    Only factors with a_i >= 2 are tested, one echelon form each.  For
    a_i = 1 the P_i-primary component is ker P_i(M) itself, of dimension
    a_i deg P_i = deg P_i by the primary decomposition, so the identity
    holds there for every M; a squarefree characteristic polynomial costs
    nothing."""
    return all(
        m.n - len(rref(m.eval_poly(f).rows)[1]) == f.degree for f, a in pairs if a > 1
    )


class Lattice(Record):
    """Every M-invariant subspace of a regular M as chain prefixes of one basis.

    chains holds (offset, deg P_i, a_i) per factor: the first k deg P_i rows
    from offset on span ker P_i(M)^k, and the divisor with exponent vector
    vec is spanned by the first vec[i] deg P_i rows of every chain i."""

    __slots__ = _fields = ("rows", "chains")

    def __len__(self) -> int:
        return math.prod(a + 1 for _, _, a in self.chains)


def _cyclic_krylov(m: Matrix) -> tuple:
    # the Krylov rows of the first seeded draw where they have full rank
    p, level, n = m.p, m.level, m.n
    rng = random.Random(f"cyclic-vector:{p}:{level}:{n}")
    for _ in range(CYCLIC_DRAWS):
        krylov = krylov_rows(m, [gf.elem_from_encoding(p, level, rng.randrange(p**level)) for _ in range(n)])
        if len(rref(krylov)[1]) == n:
            return krylov
    raise InvariantError(
        f"no cyclic vector in {CYCLIC_DRAWS} draws over F_{p}^{level} (q = {p}, n = {n}): the matrix is not regular"
    )


def invariant_subspaces(m: Matrix, pairs) -> Lattice:
    """The full lattice of M-invariant subspaces of a regular M.

    pairs is the factorization of charpoly(M), a sequence of (irreducible,
    multiplicity) pairs.  Divisor exponent vectors, every divisor of the
    characteristic polynomial, name the members; the map is a lattice
    isomorphism from monic divisors ordered by divisibility.

    A cyclic vector x makes u -> u(M) x an isomorphism F[T]/(chi) -> V, so
    ker P_i(M)^k is {u(M) x : chi/P_i^k divides u} (Brickman-Fillmore, Canad.
    J. Math. 19, 1967), spanned by T^j chi/P_i^l for j < deg P_i, l <= k.
    The basis lists one chain per factor, step k holding the coefficient
    rows of T^j chi/P_i^k (step a_i the cofactor, each lower step P_i times
    the one above), so ker P_i(M)^k is the first k deg P_i rows of its chain
    and each divisor, a direct sum of primary chain members by Bezout, a
    union of chain prefixes.  B is these coefficient rows times the Krylov
    rows x, Mx, ..., M^(n-1) x.
    """
    count = math.prod(a + 1 for _, a in pairs)  # before any Krylov row is formed
    if count > DIVISOR_MAX:
        raise InputError(f"the invariant subspace lattice has {count} divisors, more than {DIVISOR_MAX}")
    p, level, n = m.p, m.level, m.n
    z, one = gf.zero(p, level), Poly.one(p, level)
    # cofactor i, chi / P_i^a_i, is the product of the prime powers before
    # i times that of those after i: two running products serve every i
    powers = [math.prod([f] * (a - 1), start=f) for f, a in pairs]
    before = list(accumulate(powers[:-1], operator.mul, initial=one))
    after = list(accumulate(reversed(powers[1:]), operator.mul, initial=one))[::-1]
    steps, chains = [], []
    for i, (f, a) in enumerate(pairs):
        chains.append((len(steps), f.degree, a))
        quos = [before[i] * after[i]]
        for _ in range(a - 1):
            quos.append(quos[-1] * f)
        for quo in reversed(quos):
            steps += [(z,) * j + quo.coeffs + (z,) * (n - j - len(quo.coeffs)) for j in range(f.degree)]
    rows = (Matrix.from_rows(p, level, steps) @ Matrix(p, level, _cyclic_krylov(m))).rows
    return Lattice(rows, tuple(chains))
