"""Exact linear algebra over the tower fields.

Matrices act on column vectors; vectors are plain tuples of FieldElem.
A subspace is a set of rows of one basis, never an echelon form of its own,
so nothing here compares or hashes a subspace.

The characteristic polynomial goes through a deterministic Hessenberg
reduction followed by the classical recurrence on leading principal minors.
Over a tabled field (gf.TABLE_CAP) the kernels here (products, apply,
conj, Horner's eval_poly, rref and charpoly) take their operands' encodings
from gf.index_rows once per call, run the same loops on ints through the
field's tables and wrap the result in FieldElems once; above the cap they
run the FieldElem loops, which the tests also hold the encoded ones against.
Regularity (cyclicity) is decided exactly on the factorization of the
characteristic polynomial: M is regular iff dim ker P_i(M) = deg P_i for every
irreducible factor P_i, which can fail only where P_i is a repeated factor.
The invariant subspace lattice of a regular M is one basis B built from the
primary chains ker P_i(M)^k, whose dimensions it checks again on the way,
and every divisor of the characteristic polynomial is a set of rows of B.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import gf
from .errors import InputError
from .poly import Poly, divisor_exponents, factor_pairs


@dataclass(frozen=True, slots=True)
class Matrix:
    p: int
    level: int
    rows: tuple[tuple[gf.FieldElem, ...], ...]

    def __post_init__(self):
        if any(len(r) != len(self.rows[0]) for r in self.rows):
            raise InputError("ragged matrix")

    # ----- constructors -------------------------------------------------
    @staticmethod
    def from_rows(p, level, rows) -> "Matrix":
        return Matrix(p, level, tuple(tuple(r) for r in rows))

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
            for i in range(b.n):
                for j in range(b.n):
                    rows[off + i][off + j] = b.rows[i][j]
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
        cols = list(zip(*other.rows))
        out = []
        for r in self.rows:
            out.append([gf.dot(r, c) for c in cols])
        return Matrix.from_rows(self.p, self.level, out)

    def scale(self, c: gf.FieldElem) -> "Matrix":
        return Matrix.from_rows(self.p, self.level, [[a * c for a in r] for r in self.rows])

    def transpose(self) -> "Matrix":
        return Matrix.from_rows(self.p, self.level, list(zip(*self.rows)))

    def conj(self) -> "Matrix":
        """Entrywise q-power conjugation; over a tabled field on encodings."""
        enc = gf.index_rows(*self.rows)
        if enc is not None:
            t, rows = enc
            frob, elems = t.frob, t.elems
            return Matrix(self.p, self.level, tuple(tuple([elems[frob[a]] for a in r]) for r in rows))
        return Matrix.from_rows(self.p, self.level, [[gf.frob_q(a) for a in r] for r in self.rows])

    def apply(self, v) -> tuple:
        if len(v) != self.ncols:
            raise InputError("vector length mismatch")
        enc = gf.index_rows(v, *self.rows)
        if enc is not None:
            t, (x, *rows) = enc
            return tuple(t.elems[y] for (y,) in _matmul_indexed(t, rows, [[y] for y in x]))
        return tuple(gf.dot(r, v) for r in self.rows)

    @property
    def is_zero(self) -> bool:
        return all(a.is_zero for r in self.rows for a in r)

    def eval_poly(self, f: Poly) -> "Matrix":
        """Horner evaluation f(M), starting from f_d M + f_{d-1} I.

        A polynomial of degree d costs d - 1 matrix products, none for
        d <= 1, and each constant is added on the diagonal only.  Over a
        tabled field the whole evaluation runs on encodings."""
        enc = gf.index_rows(f.coeffs, *self.rows)
        if enc is not None:
            t, (coeffs, *rows) = enc
            return Matrix(self.p, self.level, _wrap(t, _horner_indexed(t, rows, coeffs)))
        if f.degree < 1:
            return Matrix.identity(self.p, self.level, self.n).scale(f.coeff(0))
        acc = _plus_diagonal(self.scale(f.leading), f.coeffs[-2])
        for c in reversed(f.coeffs[:-2]):
            acc = _plus_diagonal(acc @ self, c)
        return acc

    def to_json(self):
        return [[list(a.coeffs) for a in r] for r in self.rows]


def _plus_diagonal(m: Matrix, c: gf.FieldElem) -> Matrix:
    # M + c I by n additions
    rows = [list(r) for r in m.rows]
    for i, r in enumerate(rows):
        r[i] = r[i] + c
    return Matrix.from_rows(m.p, m.level, rows)


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


def _horner_indexed(t, m, coeffs):
    # f(M) for f = sum coeffs[i] T^i, as in Matrix.eval_poly
    add, n = t.add, len(m)
    if len(coeffs) < 2:
        c = coeffs[0] if coeffs else 0
        return [[c if i == j else 0 for j in range(n)] for i in range(n)]
    lead = t.mul[coeffs[-1]]
    acc = [[lead[x] for x in row] for row in m]
    for k, c in enumerate(reversed(coeffs[:-1])):
        if k:
            acc = _matmul_indexed(t, acc, m)
        for i, row in enumerate(acc):
            row[i] = add[row[i]][c]
    return acc


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


def complete_basis(base_rows, extension_rows):
    """Extend a basis by the first extension rows that enlarge the span.

    With every vector laid out as a column, a column is a pivot of the
    echelon form exactly when it lies outside the span of the columns before
    it, so the pivots past the base columns pick the same rows as adding
    the extension rows greedily in order."""
    k = len(base_rows)
    vectors = list(base_rows) + list(extension_rows)
    _, pivots = rref(list(zip(*vectors)))
    return [vectors[c] for c in pivots if c >= k]


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


def is_regular(m: Matrix, fact) -> bool:
    """True iff M is cyclic, decided exactly from the factorization of its
    characteristic polynomial: dim ker P_i(M) = deg P_i for every irreducible
    factor P_i, i.e. each primary component has a single elementary divisor.

    Only factors with a_i >= 2 are tested, one echelon form each.  For
    a_i = 1 the P_i-primary component is ker P_i(M) itself, of dimension
    a_i deg P_i = deg P_i by the primary decomposition, so the identity
    holds there for every M; a squarefree characteristic polynomial costs
    nothing."""
    return all(
        m.n - len(rref(m.eval_poly(f).rows)[1]) == f.degree for f, a in factor_pairs(fact) if a > 1
    )


@dataclass(frozen=True, slots=True)
class Lattice:
    """Every M-invariant subspace of a regular M as a set of rows of one basis.

    The subspace of the divisor with exponent vector vec is spanned by the
    rows coords[vec] of the basis rows; the keys are every divisor, in
    divisor_exponents order."""

    rows: tuple[tuple[gf.FieldElem, ...], ...]
    coords: dict[tuple[int, ...], tuple[int, ...]]

    def __len__(self) -> int:
        return len(self.coords)


def invariant_subspaces(m: Matrix, fact) -> Lattice:
    """The full lattice of M-invariant subspaces of a regular M.

    fact is the factorization of charpoly(M): a FactoredPoly or a plain
    sequence of (irreducible, multiplicity) pairs.  Keys are divisor exponent
    vectors, every divisor of the characteristic polynomial; the map is a
    lattice isomorphism from monic divisors ordered by divisibility.

    The factors are pairwise coprime, so by Bezout the subspace of the
    divisor prod P_i^{m_i} is the direct sum of the primary chain members
    ker P_i(M)^{m_i} (Brickman-Fillmore).  The basis lists one chain per
    factor: step k extends the rows of ker P_i(M)^(k-1) by the null basis
    of P_i(M)^k (complete_basis), so ker P_i(M)^k is the first k deg P_i
    rows of its chain and each divisor a union of chain prefixes.
    Regularity is decided on the way: M is cyclic iff every primary
    component is, iff dim ker P_i(M)^k = k deg P_i at every step.
    """
    keys = divisor_exponents(fact)  # bounded before any chain is formed
    pairs = factor_pairs(fact)
    rows, offsets = [], []
    for f, a in pairs:
        offsets.append(len(rows))
        base = m.eval_poly(f)
        power = base
        chain = []
        for k in range(1, a + 1):
            if k > 1:
                power = power @ base
            ker = null_basis(power)
            if len(ker) != k * f.degree:
                raise InputError("invariant subspace enumeration requires a regular matrix")
            chain += complete_basis(chain, ker) if chain else ker
        rows += chain
    coords = {
        vec: tuple(off + r for off, (f, _), k in zip(offsets, pairs, vec) for r in range(k * f.degree))
        for vec in keys
    }
    return Lattice(tuple(rows), coords)
