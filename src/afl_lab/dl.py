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
linear factors over F_{q^{2t}}, so no gcd with x^{q^{2t}} - x is taken.  The
root comes from Berlekamp's trace algorithm (Factoring polynomials over
large finite fields, Math. Comp. 1970): with x^{p^i} mod f cached, the
absolute trace Tr(a x) mod f is a sum of scaled residues, and
gcd(Tr^{(p-1)/2} - 1, g) splits the current factor g with no powmod to
(Q-1)/2.  Each split keeps the smaller factor, down to degree one, and
divides the cofactor out only when it is the one kept; the orbit is
cross-checked instead: its walk (gf.tau_orbit) must close after t distinct
members.  With mu_0 a root, that proves the characteristic polynomial
irreducible: the minimal polynomial of mu_0 over F_{q^2} has the orbit's
length as degree and divides it.  So irreducibility is decided only when the
orbit fails, to tell reducible input (InputError) from broken arithmetic
(CrossCheckError).

The characteristic polynomial f has its coefficients in F_{q^2}, so every
x^{p^i} mod f lies in F_{q^2}[x], and the table is built there: x^p mod f
and the matrix of the (x^p)^j mod f, by Modulus(f).mul on every field, then
x^{p^{i+1}} mod f as that matrix applied to the Frobenius images of the
coefficients of x^{p^i} mod f, one Matrix.apply per step.  Nothing of it is
lifted: row k of the table holds coefficient k of every x^{p^i} mod f, so
Tr(a x) mod f is one gf.embedded_apply of the table to the conjugates
a^{p^i} (an entry a + b gen acts as a + b r, two small-int combinations of
the packed vector and one product by r per row).  The rest works in
F_{q^{2t}}, above gf.TABLE_CAP, where every sum of products is reduced
once: Modulus(g).power reduces the trace modulo the current factor g (x^m
mod g folded in, no long division), and poly_gcd takes packed
pseudo-remainders, with no inverse before its monic gcd.  s and G act on
level-2t vectors without being embedded, by embedded_apply too, and the
chain values are gf.dot products.

No kernel is taken at level 2t.  The characteristic polynomial f is
irreducible, so e_1 has annihilator f, and w = h(s) e_1, with h = f/(x - mu_0)
from one synthetic division, is nonzero with (s - mu_0) w = f(s) e_1 = 0; the
t distinct roots make the eigenspace a line, which w spans (von zur Gathen
and Gerhard, Modern Computer Algebra, ch. 12).  The Krylov vectors s^i e_1
are formed at level 2, and w is the matrix of their coordinates applied to
the coefficients of h (gf.embedded_apply).  s and G have their entries in
F_{q^2}, which tau fixes, so tau maps the mu-eigenline to the
tau(mu)-eigenline and keeps the leading 1 of a canonical row: w over its
leading entry gives every eigenvector, and each derived v_k is checked
against s v_k = mu_k v_k, which (v_k != 0) also checks mu_k as a root.

G lies over F_{q^2} too, so h(tau x, tau y) = tau h(x, y), and with
tau^i v_0 = v_i the chain of v_k is tau^k of the chain of v_0.  As tau fixes
zero and nonzero alike, the t records qualify all together or not at all,
so the chain of v_0 alone decides them: d + 1 dot products of v_0 with the
tau-images of G conj(v_0), one embedded_apply.  No other chain is formed;
it would check nothing more, as every v_k is checked as an eigenvector of
mu_k and galois_orbit_check maps each recorded line to its tau-image.

Nothing here consults the closed-form counting formulas, so this is a true
second route for the per-stratum counts.
"""

from __future__ import annotations

import random

from . import gf
from .errors import CrossCheckError, InputError, Record
from .gf import dot as _dot
from .linalg import Matrix, charpoly, krylov_rows
from .poly import SPLIT_TRIES, Modulus, Poly, is_irreducible, poly_gcd


# Largest dimension `afl-lab dl` accepts.  On a 2-vCPU host t = 27 takes
# about 0.12 s at q = 3, 0.57 s at q = 16381 and 2.2 s at q = 16319, the
# slowest prime near P_MAX (interpreter start included, median of 5); the
# four extra Frobenius tables the inverse's addition chain reads at level 54
# take 2-7 ms to build.  Above it the scan for the level-2t defining
# polynomial leads and jumps with (q, t) (17 s for level 98 at q = 16319).
T_MAX = 27

class EigenlineRecord(Record):
    """One eigenline that satisfies the chain: eigenvalue lives at level 2t,
    vector is the canonical representative over the tower.  The chain of
    v_0 qualifies every record (module docstring), so none carries its own."""

    __slots__ = _fields = ("eigenvalue", "vector")


def _frobenius_table(f: Poly) -> list[tuple[gf.FieldElem, ...]]:
    """Row k holds coefficient k of x^(p^i) mod f for i < 2 deg f, for f
    monic of degree >= 2 over F_{q^2}, where every x^(p^i) mod f lies.

    The p-power map is additive, so x^(p^(i+1)) = sum frob(c_j) (x^p)^j when
    x^(p^i) = sum c_j x^j: one matrix of the (x^p)^j mod f, applied once per
    step, and no powmod to Q.  Its columns are reduced by Modulus(f).mul."""
    p, level, t = f.p, f.level, f.degree
    x = Poly.x(p, level)
    ring = Modulus(f)
    xp = x.powmod(p, f)
    powers = [Poly.one(p, level)]
    for _ in range(1, t):
        powers.append(ring.mul(powers[-1], xp))
    step = Matrix.from_rows(p, level, [[g.coeff(k) for g in powers] for k in range(t)])
    cur = x.coeffs + (gf.zero(p, level),) * (t - 2)
    columns = [cur]
    for _ in range(1, 2 * t):
        cur = step.apply([gf.frob_q(c) for c in cur])
        columns.append(cur)
    return list(zip(*columns))


def _one_root(f: Poly, rng) -> gf.FieldElem:
    """A root in F_{q^{2t}} of f over F_{q^2} of degree t, which must split
    into distinct linear factors there.

    Berlekamp's trace split: for a random a, Tr(a x) mod g is sum a^(p^i) x^(p^i)
    and takes the value Tr(a r) in F_p at each root r, uniform over F_p for
    the difference of two distinct roots; gcd(Tr^((p-1)/2) - 1, g) collects
    the roots where that value is a nonzero square.  Each successful split
    keeps the smaller factor, so about log2(deg f) splits reach a linear
    factor.  The x^(p^i) stay modulo f, over F_{q^2}: each try forms its
    trace modulo f as one embedded_apply of their coefficients, and
    Modulus(g).power reduces that one polynomial modulo the current factor g."""
    p, level = f.p, 2 * f.degree
    f = f.monic()
    if f.degree == 1:
        return -f.coeffs[0]  # t = 1: the root needs no Frobenius table
    table = _frobenius_table(f)
    g = f.lift(level)
    while g.degree > 1:
        ring = Modulus(g)
        for _ in range(SPLIT_TRIES):
            a = gf.random_elem(p, level, rng)
            conjugates = [a]
            for _ in range(1, level):
                conjugates.append(gf.frob_q(conjugates[-1]))
            trace = Poly.from_elems(p, level, gf.embedded_apply(table, conjugates))
            h = poly_gcd(ring.power(trace, (p - 1) // 2) - Poly.one(p, level), g)
            if 0 < h.degree < g.degree:
                break
        else:
            raise CrossCheckError(f"no trace split of a degree-{g.degree} factor in {SPLIT_TRIES} tries")
        # the smaller factor, h on a tie: g and h are monic, and the
        # cofactor is divided out only when it is kept
        g = h if 2 * h.degree <= g.degree else g // h
    return -g.coeffs[0]


def _eigenvalue_orbit(f: Poly, rng) -> list[gf.FieldElem]:
    """The roots in F_{q^{2t}} of f over F_{q^2} of degree t, as the
    q^2-Frobenius orbit mu, tau mu, tau^2 mu, ... of one root (gf.tau_orbit).

    f must split into distinct linear factors there; an orbit of other than
    t members is a CrossCheckError.  _orbit_eigenvectors checks the members
    as roots: mu_0 by its synthetic division, every mu_k by s v_k = mu_k v_k."""
    orbit = gf.tau_orbit(_one_root(f, rng))
    if len(orbit) != f.degree:
        raise CrossCheckError(f"expected {f.degree} eigenvalues in the orbit of a root, found {len(orbit)}")
    return orbit


def _canonical_row(vector) -> tuple[gf.FieldElem, ...] | None:
    """vector over its first nonzero entry, the reduced echelon form of the
    one row, or None for the zero vector; a leading 1 costs no inverse."""
    lead = next((c for c in vector if not c.is_zero), None)
    if lead is None:
        return None
    if lead == gf.one(lead.p, lead.level):
        return tuple(vector)
    inv = lead.inverse()
    return tuple(c * inv for c in vector)


def _orbit_eigenvectors(s: Matrix, f: Poly, orbit: list[gf.FieldElem]) -> list[tuple[gf.FieldElem, ...]]:
    """The canonical eigenvector of each orbit member: one Krylov combination, then tau.

    s lives in F_{q^2}, f is its characteristic polynomial, irreducible as
    the orbit has proved, and the orbit lives in F_{q^{2t}}.  Synthetic
    division gives f = (x - mu_0) h + f(mu_0); w = h(s) e_1 spans the
    mu_0-eigenline (module docstring) and w over its leading entry is its
    canonical row; v_{k+1} = tau(v_k) coordinatewise.  f(mu_0) != 0, w = 0
    or any s v_k != mu_k v_k is a CrossCheckError."""
    mu = orbit[0]
    coeffs = f.lift(mu.level).coeffs
    h = [coeffs[-1]]
    for c in reversed(coeffs[1:-1]):
        h.append(c + mu * h[-1])
    if not (coeffs[0] + mu * h[-1]).is_zero:
        raise CrossCheckError("the first eigenvalue is not a root of the characteristic polynomial")
    h.reverse()
    # the Krylov vectors s^i e_1 at level 2; coordinate c of w = h(s) e_1 is
    # sum_i (s^i e_1)_c h_i
    krylov = krylov_rows(s, (gf.one(s.p, s.level),) + (gf.zero(s.p, s.level),) * (s.n - 1))
    vectors = [_canonical_row(gf.embedded_apply(list(zip(*krylov)), h))]
    if vectors[0] is None:
        raise CrossCheckError("the Krylov combination of an irreducible characteristic polynomial vanishes")
    for _ in orbit[1:]:
        vectors.append(tuple(gf.tau_frob(c) for c in vectors[-1]))
    for mu, v in zip(orbit, vectors):
        if gf.embedded_apply(s.rows, v) != tuple(mu * c for c in v):
            raise CrossCheckError("a Frobenius image of the eigenvector is not an eigenvector of its eigenvalue")
    return vectors


def dl_fixed_points(gram: Matrix, s: Matrix, seed=0) -> list[EigenlineRecord]:
    """Enumerate the eigenlines of s over F_{q^{2t}} satisfying the chain of
    the form with Gram matrix gram.

    Requires odd dimension and irreducible characteristic polynomial.  The
    one chain computed, h(v_0, tau^i v_0) for i = 0..d, decides every record
    (module docstring): all t eigenlines come back when it vanishes for
    i < d but not at i = d, and none otherwise, so a count is t or 0; for
    valid input it is t.  Records are sorted by eigenvalue encoding.
    """
    t = gram.n
    if t % 2 == 0:
        raise InputError("the eigenline model needs odd dimension")
    if s.n != t:
        raise InputError("dimension mismatch")
    cp = charpoly(s)
    # at t = 1 the root is read off cp with no draw, so no rng is built
    rng = random.Random(f"dl:{gram.p}:{t}:{seed}") if t > 1 else None
    try:
        orbit = _eigenvalue_orbit(cp, rng)
    except CrossCheckError:
        # a full orbit proves cp irreducible, so only a failed one asks
        if not is_irreducible(cp):
            raise InputError(
                "characteristic polynomial is reducible; the fixed count is 0 by the split criterion"
            ) from None
        raise
    vectors = _orbit_eigenvectors(s, cp, orbit)
    # h(x, y) = x . G conj(y), G over F_{q^2}: h(v_0, tau^i v_0) is v_0 dotted
    # with the i-th tau-image of G conj(v_0)
    d = (t - 1) // 2
    image = gf.embedded_apply(gram.rows, [gf.frob_q(c) for c in vectors[0]])
    chain = [_dot(vectors[0], image)]
    for _ in range(d):
        image = [gf.tau_frob(c) for c in image]
        chain.append(_dot(vectors[0], image))
    if any(not c.is_zero for c in chain[:d]) or chain[d].is_zero:
        return []
    return sorted(map(EigenlineRecord, orbit, vectors), key=lambda rec: gf.encode_int(rec.eigenvalue))


def _line_key(vector) -> tuple | None:
    # canonical projective representative, None for the zero vector
    row = _canonical_row(vector)
    return None if row is None else tuple(c.coeffs for c in row)


def galois_orbit_check(records: list[EigenlineRecord]) -> bool:
    """True iff the q^2-Frobenius permutes the recorded lines in one cycle;
    False for no records, a zero vector or a repeated line."""
    keys = {_line_key(rec.vector): i for i, rec in enumerate(records)}
    if not records or None in keys or len(keys) != len(records):
        return False
    perm = []
    for rec in records:
        image = tuple(gf.tau_frob(c) for c in rec.vector)
        j = keys.get(_line_key(image))
        if j is None:
            return False
        perm.append(j)
    seen, cur = set(), 0
    while cur not in seen:
        seen.add(cur)
        cur = perm[cur]
    return len(seen) == len(records)
