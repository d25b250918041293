"""Independent fixed-point counter via explicit eigenline enumeration.

For a regular unitary s of odd dimension t with irreducible characteristic
polynomial, the fixed lines in the ambient variety are the t eigenlines of s
over F_{q^{2t}}.  This module finds them explicitly: one root of the
characteristic polynomial in the big field by seeded equal-degree splitting,
its q^2-Frobenius orbit as the full eigenvalue set, a canonical eigenvector
per eigenvalue, then the isotropy chain

    h(l, l) = h(l, tau l) = ... = h(l, tau^{d-1} l) = 0,  h(l, tau^d l) != 0

with d = (t-1)/2, evaluated through the sesquilinear extension of the form
(conjugation = q-power on the tower, tau = coordinatewise q^2-power).  The
chain convention corresponds to one fixed Coxeter element; other choices
differ by a power of Frobenius and are out of scope.

An irreducible polynomial of degree t over F_{q^2} splits into distinct
linear factors over F_{q^{2t}}, so no gcd with x^{q^{2t}} - x is taken: the
splitting keeps only the smaller factor of each split, down to degree one,
and the orbit is cross-checked instead (t distinct members, each a root).

Nothing here consults the closed-form counting formulas, so this is a true
second route for the per-stratum counts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import gf
from .errors import CrossCheckError, InputError
from .hermitian import HermitianSpace
from .linalg import Matrix, charpoly, kernel, rref
from .poly import Poly, is_irreducible, poly_gcd


@dataclass(frozen=True)
class EigenlineRecord:
    eigenvalue: gf.FieldElem  # lives at level 2t
    vector: tuple[gf.FieldElem, ...]  # canonical representative over the tower
    chain_values: tuple[gf.FieldElem, ...]  # h(l, tau^i l) for i = 0..d

    def to_json(self):
        return {
            "eigenvalue": list(self.eigenvalue.coeffs),
            "vector": [list(c.coeffs) for c in self.vector],
            "chain_values": [list(c.coeffs) for c in self.chain_values],
        }


def _one_root(f: Poly, rng) -> gf.FieldElem:
    """A root of f, which must split into distinct linear factors over its field.

    Each successful equal-degree split keeps the smaller factor, so about
    log2(deg f) splits reach a linear factor."""
    p, level = f.p, f.level
    e = (p**level - 1) // 2
    g = f.monic()
    while g.degree > 1:
        shift = gf.elem(p, level, [rng.randrange(p) for _ in range(level)])
        cand = (Poly.x(p, level) + Poly.constant(shift)).powmod(e, g) - Poly.one(p, level)
        h = poly_gcd(cand, g)
        if 0 < h.degree < g.degree:
            g = min(h, (g // h).monic(), key=lambda k: k.degree)
    return -g.coeffs[0]


def _eigenvalue_orbit(f: Poly, rng) -> list[gf.FieldElem]:
    """The roots of f as the q^2-Frobenius orbit of one root, sorted by encoding.

    f has its coefficients in the embedded F_{q^2} and splits into distinct
    linear factors over its field; the orbit must have deg f distinct members,
    each a root of f, else CrossCheckError."""
    orbit = [_one_root(f, rng)]
    for _ in range(f.degree - 1):
        orbit.append(gf.tau_frob(orbit[-1]))
    if len(set(orbit)) != f.degree:
        raise CrossCheckError(f"expected {f.degree} eigenvalues in the orbit of a root, found {len(set(orbit))}")
    if any(f(mu) for mu in orbit):
        raise CrossCheckError("a Frobenius image of an eigenvalue is not a root of the characteristic polynomial")
    return sorted(orbit, key=gf.encode_int)


def _sesquilinear(gram_big: Matrix, x, y) -> gf.FieldElem:
    gy = gram_big.apply([gf.frob_q(c) for c in y])
    acc = gf.zero(gram_big.p, gram_big.level)
    for a, b in zip(x, gy):
        acc = acc + a * b
    return acc


def dl_fixed_points(space: HermitianSpace, s: Matrix, seed=0) -> list[EigenlineRecord]:
    """Enumerate the eigenlines of s over F_{q^{2t}} satisfying the chain.

    Requires odd dimension and irreducible characteristic polynomial; every
    returned record carries its chain values, and for valid input all t
    eigenlines qualify.
    """
    t = space.dim
    if t % 2 == 0:
        raise InputError("the eigenline model needs odd dimension")
    if s.n != t:
        raise InputError("dimension mismatch")
    cp = charpoly(s)
    if not is_irreducible(cp):
        raise InputError("characteristic polynomial is reducible; the fixed count is 0 by the split criterion")
    p = space.p
    big = 2 * t
    gf.make_tower(p, big)
    rng = random.Random(f"dl:{p}:{t}:{seed}")
    f_big = cp.lift(big)
    eigenvalues = _eigenvalue_orbit(f_big, rng)
    s_big = Matrix.from_rows(p, big, [[gf.embed(a, big) for a in row] for row in s.rows])
    gram_big = Matrix.from_rows(p, big, [[gf.embed(a, big) for a in row] for row in space.gram.rows])
    ident = Matrix.identity(p, big, t)
    d = (t - 1) // 2
    records = []
    for mu in eigenvalues:
        eig = kernel(s_big - ident.scale(mu))
        if eig.dim != 1:
            raise CrossCheckError("eigenspace of dimension != 1 for an irreducible charpoly")
        v = eig.rows[0]
        taus = [v]
        for _ in range(d):
            taus.append(tuple(gf.tau_frob(c) for c in taus[-1]))
        chain = tuple(_sesquilinear(gram_big, v, tv) for tv in taus)
        if all(c.is_zero for c in chain[:d]) and not chain[d].is_zero:
            records.append(EigenlineRecord(mu, v, chain))
    return records


def _line_key(vector) -> tuple:
    # canonical projective representative: RREF of the single row
    rows, _ = rref([list(vector)])
    return tuple(gf.encode_int(c) for c in rows[0])


def galois_orbit_check(records: list[EigenlineRecord]) -> bool:
    """True iff the q^2-Frobenius permutes the recorded lines in one cycle."""
    if not records:
        raise InputError("no records to check")
    keys = {_line_key(rec.vector): i for i, rec in enumerate(records)}
    if len(keys) != len(records):
        return False  # duplicated lines cannot form a permutation orbit
    perm = []
    for rec in records:
        image = tuple(gf.tau_frob(c) for c in rec.vector)
        j = keys.get(_line_key(image))
        if j is None:
            return False
        perm.append(j)
    seen = 1
    cur = perm[0]
    while cur != 0:
        cur = perm[cur]
        seen += 1
        if seen > len(records):
            return False
    return seen == len(records)
