"""Named oracles: the slow definitions the fast paths of afl_lab are checked
against.  src calls none of them, and none may share code with what it
checks beyond the echelon routine rref and its null basis.

Subspaces here are canonical reduced-row-echelon bases, unique per subspace,
so subspace equality is representative equality.  The lattice src hands out
is a set of rows of one basis per divisor; lattice_span turns one of them
into such a subspace, to be compared with the kernel of its divisor."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from afl_lab import gf
from afl_lab.errors import InputError
from afl_lab.linalg import Matrix, invariant_subspaces, null_basis, rref
from afl_lab.poly import Poly, factor_pairs


@dataclass(frozen=True)
class Subspace:
    """Row span in canonical reduced-row-echelon form (unique per subspace)."""

    ambient: int
    rows: tuple[tuple[gf.FieldElem, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, v) -> bool:
        w = list(v)
        for row in self.rows:
            piv = next(i for i, a in enumerate(row) if not a.is_zero)
            if not w[piv].is_zero:
                f = w[piv]
                w = [a - f * b for a, b in zip(w, row)]
        return all(a.is_zero for a in w)


def span(ambient: int, vectors) -> Subspace:
    rows, _ = rref(list(vectors))
    return Subspace(ambient, rows)


def kernel(m: Matrix) -> Subspace:
    """Null space {v : M v = 0} as a canonical subspace."""
    return span(m.ncols, null_basis(m))


def transform_subspace(sub: Subspace, fn) -> Subspace:
    """Image of a subspace under a linear (or conjugate-linear) vector map."""
    return span(sub.ambient, [fn(r) for r in sub.rows])


def tau_map(tau):
    """The conjugate-linear vector map x -> S conj(x) of the anti-involution tau."""
    return lambda v: tau.mat.apply([gf.conj(c) for c in v])


def kernel_of_poly(m: Matrix, f: Poly) -> Subspace:
    """Null space of f(M); for regular M and f | charpoly the dimension is deg f."""
    return kernel(m.eval_poly(f))


def divisor_poly(fact, exponents) -> Poly:
    """prod P_i^{m_i}: the divisor whose kernel each lattice member must be."""
    pairs = factor_pairs(fact)
    p, level = pairs[0][0].p, pairs[0][0].level
    out = Poly.one(p, level)
    for (g, _), m in zip(pairs, exponents):
        for _ in range(m):
            out = out * g
    return out


def lattice_span(lattice, vec) -> Subspace:
    """The member of vec, the rows coords[vec] of the lattice basis, as a
    canonical subspace."""
    return span(len(lattice.rows), [lattice.rows[a] for a in lattice.coords[vec]])


def lattice_spans(lattice) -> dict:
    """Every member of the lattice as a canonical subspace, in key order."""
    return {vec: lattice_span(lattice, vec) for vec in lattice.coords}


def all_subspaces(p, level, n):
    """Yield every subspace of F_{p^level}^n once, via canonical RREF bases."""
    z, o = gf.zero(p, level), gf.one(p, level)
    elems = [gf.elem_from_encoding(p, level, k) for k in range(p**level)]
    yield Subspace(n, ())
    for k in range(1, n + 1):
        for pivs in itertools.combinations(range(n), k):
            free_pos = [
                (i, j) for i in range(k) for j in range(n) if j > pivs[i] and j not in pivs
            ]
            for assign in itertools.product(elems, repeat=len(free_pos)):
                rows = [[z] * n for _ in range(k)]
                for i in range(k):
                    rows[i][pivs[i]] = o
                for (i, j), val in zip(free_pos, assign):
                    rows[i][j] = val
                yield Subspace(n, tuple(tuple(r) for r in rows))


def naive_subspace_scan(m: Matrix) -> list[Subspace]:
    """Every M-invariant subspace, by enumerating all subspaces of the ambient.

    Guarded to ambient dimension <= 4 and p <= 3; this is the independent
    oracle for the divisor correspondence, so it must not share code with it.
    """
    if m.n > 4 or m.p > 3:
        raise InputError("naive scan guard: requires dim <= 4 and p <= 3")
    out = []
    for sub in all_subspaces(m.p, m.level, m.n):
        if all(sub.contains(m.apply(r)) for r in sub.rows):
            out.append(sub)
    return out


def script_w_direct(inst) -> list[Subspace]:
    """Oracle for engine.script_w: test tau-stability of every invariant subspace."""
    out = []
    for _, sub in sorted(lattice_spans(invariant_subspaces(inst.g, inst.fact)).items()):
        if transform_subspace(sub, tau_map(inst.tau)) == sub:
            out.append(sub)
    return out


def solve_in_rows(rows, target):
    """Coefficients expressing target as a combination of the given rows."""
    if not rows:
        return [] if all(c.is_zero for c in target) else None
    aug = [list(col) for col in zip(*rows)]
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


def quotient_by_solves(m: Matrix, w: Subspace, reps) -> Matrix:
    """Action induced by M on span(W + reps)/W, in the coset basis reps: one
    solve per representative.  With W = 0 this is in_basis by definition."""
    if not reps:
        return Matrix(m.p, m.level, ())
    rows = []
    for r in reps:
        coeffs = solve_in_rows(list(w.rows) + list(reps), list(m.apply(r)))
        if coeffs is None:
            raise InputError("representatives do not span an invariant subspace")
        rows.append(coeffs[w.dim :])
    return Matrix.from_rows(m.p, m.level, list(zip(*rows)))


def _entrywise(a: Matrix, b: Matrix, op) -> Matrix:
    if (a.p, a.level, a.n, a.ncols) != (b.p, b.level, b.n, b.ncols):
        raise InputError("entrywise matrix arithmetic needs one shape over one field")
    return Matrix.from_rows(a.p, a.level, [[op(x, y) for x, y in zip(r, s)] for r, s in zip(a.rows, b.rows)])


def matrix_sum(a: Matrix, b: Matrix) -> Matrix:
    """a + b, for matrices of one shape over one field."""
    return _entrywise(a, b, lambda x, y: x + y)


def matrix_difference(a: Matrix, b: Matrix) -> Matrix:
    """a - b, for matrices of one shape over one field."""
    return _entrywise(a, b, lambda x, y: x - y)
