"""Independent fixed-point counter via explicit eigenline enumeration.

For a regular unitary s of odd dimension t with irreducible characteristic
polynomial, the fixed lines in the ambient variety are the t eigenlines of s
over F_{q^{2t}}.  This module finds them explicitly: one root of the
characteristic polynomial in the big field by a seeded trace split, its
q^2-Frobenius orbit as the full eigenvalue set, the eigenvectors as the
Frobenius orbit of one Krylov combination, then the isotropy chain

    h(l, l) = h(l, tau l) = ... = h(l, tau^{d-1} l) = 0,  h(l, tau^d l) != 0

with d = (t-1)/2, evaluated through the sesquilinear extension of the form
(conjugation = q-power on the tower, tau = coordinatewise q^2-power).  The
chain convention corresponds to one fixed Coxeter element; other choices
differ by a power of Frobenius and are out of scope.

An irreducible polynomial of degree t over F_{q^2} splits into distinct
linear factors over F_{q^{2t}}, so no gcd with x^{q^{2t}} - x is taken.
The root comes from Berlekamp's trace algorithm (Factoring polynomials over
large finite fields, Math. Comp. 1970): with x^{p^i} mod g cached, the
absolute trace Tr(a x) mod g is a sum of scaled residues, and
gcd(Tr^{(p-1)/2} - 1, g) splits g with no powmod to (Q-1)/2.  Each split
keeps the smaller factor, down to degree one, and the orbit is
cross-checked instead (t distinct members, each a root).  That check also
proves the characteristic polynomial irreducible: the minimal polynomial of
mu_0 over F_{q^2} has the orbit's length as degree and divides it.  So
irreducibility is decided only when the orbit fails, to tell reducible input
(InputError) from broken arithmetic (CrossCheckError).

All of this works in F_{q^{2t}}, above gf.TABLE_CAP, where every sum of
products is reduced once: residues modulo the factor g are poly.Modulus
products (x^m mod g folded in, no long division), Tr(a x) mod g is one packed
combination of the cached x^(p^i), and the matrix-vector products and chain
values are gf.dot products.

No kernel is taken at level 2t.  The characteristic polynomial f is
irreducible, so e_1 has annihilator f, and w = h(s) e_1, with h = f/(x - mu_0)
from one synthetic division, is nonzero with (s - mu_0) w = f(s) e_1 = 0; the
t distinct roots make the eigenspace a line, which w spans (von zur Gathen
and Gerhard, Modern Computer Algebra, ch. 12).  The Krylov vectors s^i e_1
are formed at level 2 and embedded once, and each coordinate of w is one
packed dot product of t terms.  s and G have their entries in F_{q^2},
which tau fixes, so tau maps the mu-eigenline to the tau(mu)-eigenline and
keeps the leading 1 of a canonical row: w over its leading entry gives
every eigenvector, and each derived v_k is checked against s v_k = mu_k v_k.
With tau^i v_k = v_{k+i}, the chain values are dot products with the t
cached vectors G conj(v_j), still computed per record.

Nothing here consults the closed-form counting formulas, so this is a true
second route for the per-stratum counts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import gf
from .errors import CrossCheckError, InputError
from .gf import dot as _dot
from .hermitian import HermitianSpace
from .linalg import Matrix, charpoly, rref
from .poly import SPLIT_TRIES, Modulus, Poly, is_irreducible, poly_gcd


# Largest dimension `afl-lab dl` accepts.  On a 2-vCPU host t = 27 takes
# about 0.5 s at q = 3, 2.0 s at q = 16381 and 4.7 s at q = 16319, the
# slowest prime near P_MAX.  Above it the scan for the level-2t defining
# polynomial leads and jumps with (q, t) (17 s for level 98 at q = 16319).
T_MAX = 27

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


def _linear_combination(scalars, polys: list[Poly]) -> Poly:
    """sum(c * f) over the pairs of scalars and polynomials, zero scalars
    skipped: one packed sum of scalar-times-polynomial products, each
    coefficient folded once."""
    p, level = polys[0].p, polys[0].level
    width = gf.slot_width(p, level, len(polys))
    acc = 0
    for c, f in zip(scalars, polys):
        if not c.is_zero:
            acc += gf.pack_blocks(p, level, width, (c,)) * gf.pack_blocks(p, level, width, f.coeffs)
    return Poly.from_elems(p, level, gf.fold_blocks(p, level, width, max(len(f.coeffs) for f in polys), acc))


def _frobenius_powers(g: Poly, ring: Modulus) -> list[Poly]:
    """x^(p^i) mod g for i < level, g monic of degree >= 1 and ring = Modulus(g).

    The p-power map is additive, so x^(p^(i+1)) = sum c_j^p (x^p)^j when
    x^(p^i) = sum c_j x^j: one table of (x^p)^j mod g and no powmod to Q."""
    p, level = g.p, g.level
    x = Poly.x(p, level)
    xp = ring.power(x, p)
    powers = [Poly.one(p, level)]
    for _ in range(1, g.degree):
        powers.append(ring.mul(powers[-1], xp))
    xs = [ring.reduce(x)]
    for _ in range(1, level):
        xs.append(_linear_combination([gf.frob_q(c) for c in xs[-1].coeffs], powers))
    return xs


def _one_root(f: Poly, rng) -> gf.FieldElem:
    """A root of f, which must split into distinct linear factors over its field.

    Berlekamp's trace split: for a random a, Tr(a x) mod g is sum a^(p^i) x^(p^i)
    and takes the value Tr(a r) in F_p at each root r, uniform over F_p for
    the difference of two distinct roots; gcd(Tr^((p-1)/2) - 1, g) collects
    the roots where that value is a nonzero square.  Each successful split
    keeps the smaller factor and reduces the x^(p^i) modulo it, so about
    log2(deg f) splits reach a linear factor."""
    p, level = f.p, f.level
    g = f.monic()
    if g.degree == 1:
        return -g.coeffs[0]  # t = 1: the root needs no Frobenius table
    ring = Modulus(g)
    xs = _frobenius_powers(g, ring)
    while g.degree > 1:
        for _ in range(SPLIT_TRIES):
            a = gf.elem(p, level, [rng.randrange(p) for _ in range(level)])
            conjugates = [a]
            for _ in range(1, level):
                conjugates.append(gf.frob_q(conjugates[-1]))
            trace = _linear_combination(conjugates, xs)
            h = poly_gcd(ring.power(trace, (p - 1) // 2) - Poly.one(p, level), g)
            if 0 < h.degree < g.degree:
                break
        else:
            raise CrossCheckError(f"no trace split of a degree-{g.degree} factor in {SPLIT_TRIES} tries")
        g = min(h, (g // h).monic(), key=lambda k: k.degree)
        ring = Modulus(g)
        xs = [ring.reduce(x) for x in xs]
    return -g.coeffs[0]


def _eigenvalue_orbit(f: Poly, rng) -> list[gf.FieldElem]:
    """The roots of f as the q^2-Frobenius orbit mu, tau mu, tau^2 mu, ... of one root.

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
    return orbit


def _orbit_eigenvectors(s: Matrix, f: Poly, orbit: list[gf.FieldElem]) -> list[tuple[gf.FieldElem, ...]]:
    """The canonical eigenvector of each orbit member: one Krylov combination, then tau.

    s lives in F_{q^2} and f is its characteristic polynomial lifted to the
    level of the orbit, irreducible as the orbit has proved.  With
    f = (x - mu_0) h + f(mu_0), w = h(s) e_1 spans the mu_0-eigenline (module
    docstring) and w over its leading entry is its canonical row;
    v_{k+1} = tau(v_k) coordinatewise.  f(mu_0) != 0, w = 0 or any
    s v_k != mu_k v_k is a CrossCheckError."""
    big, mu = f.level, orbit[0]
    h = [f.coeffs[-1]]  # synthetic division by x - mu, top coefficient first
    for c in reversed(f.coeffs[1:-1]):
        h.append(c + mu * h[-1])
    if not (f.coeffs[0] + mu * h[-1]).is_zero:
        raise CrossCheckError("the first eigenvalue is not a root of the characteristic polynomial")
    h.reverse()
    # the Krylov vectors s^i e_1 at level 2, one column per coordinate
    krylov = [(gf.one(s.p, s.level),) + (gf.zero(s.p, s.level),) * (s.n - 1)]
    for _ in range(1, s.n):
        krylov.append(s.apply(krylov[-1]))
    w = [gf.dot([gf.embed(a, big) for a in column], h) for column in zip(*krylov)]
    lead = next((c for c in w if not c.is_zero), None)
    if lead is None:
        raise CrossCheckError("the Krylov combination of an irreducible characteristic polynomial vanishes")
    inv = lead.inverse()
    vectors = [tuple(c * inv for c in w)]
    for _ in orbit[1:]:
        vectors.append(tuple(gf.tau_frob(c) for c in vectors[-1]))
    s_big = Matrix.from_rows(s.p, big, [[gf.embed(a, big) for a in row] for row in s.rows])
    for mu, v in zip(orbit, vectors):
        if s_big.apply(v) != tuple(mu * c for c in v):
            raise CrossCheckError("a Frobenius image of the eigenvector is not an eigenvector of its eigenvalue")
    return vectors


def dl_fixed_points(space: HermitianSpace, s: Matrix, seed=0) -> list[EigenlineRecord]:
    """Enumerate the eigenlines of s over F_{q^{2t}} satisfying the chain.

    Requires odd dimension and irreducible characteristic polynomial; every
    returned record carries its chain values, and for valid input all t
    eigenlines qualify.  Records are sorted by eigenvalue encoding.
    """
    t = space.dim
    if t % 2 == 0:
        raise InputError("the eigenline model needs odd dimension")
    if s.n != t:
        raise InputError("dimension mismatch")
    cp = charpoly(s)
    p = space.p
    big = 2 * t
    cp_big = cp.lift(big)
    rng = random.Random(f"dl:{p}:{t}:{seed}")
    try:
        orbit = _eigenvalue_orbit(cp_big, rng)
    except CrossCheckError:
        # a full orbit proves cp irreducible, so only a failed one asks
        if not is_irreducible(cp):
            raise InputError(
                "characteristic polynomial is reducible; the fixed count is 0 by the split criterion"
            ) from None
        raise
    gram_big = Matrix.from_rows(p, big, [[gf.embed(a, big) for a in row] for row in space.gram.rows])
    vectors = _orbit_eigenvectors(s, cp_big, orbit)
    # h(x, y) = x . G conj(y), and tau^i v_k = v_{(k+i) mod t}
    gram_conj = [gram_big.apply([gf.frob_q(c) for c in v]) for v in vectors]
    d = (t - 1) // 2
    records = []
    for k, (mu, v) in enumerate(zip(orbit, vectors)):
        chain = tuple(_dot(v, gram_conj[(k + i) % t]) for i in range(d + 1))
        if all(c.is_zero for c in chain[:d]) and not chain[d].is_zero:
            records.append(EigenlineRecord(mu, v, chain))
    return sorted(records, key=lambda rec: gf.encode_int(rec.eigenvalue))


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
