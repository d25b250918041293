"""Polynomial arithmetic over tower fields and the conjugate-reciprocal star.

A Poly is a little-endian tuple of FieldElem coefficients, all at one level
(level 2 for the characteristic polynomials this package cares about, bigger
even levels inside the eigenline counter).  Factorization is the classical
chain: squarefree decomposition (with p-th root extraction, we are in
characteristic p), distinct-degree splitting, then equal-degree splitting by
Cantor-Zassenhaus, its rng keyed by the field alone: the factorization is
unique and returned sorted, so no seed could change it.  Over a tabled field
the linear factors are found first, as roots, by evaluating at every
element (von zur Gathen-Gerhard, Modern Computer Algebra, ch. 14), and the
chain splits only the root-free cofactor.

Over a tabled field (gf.TABLE_CAP) products, powers modulo a polynomial
and gcds run on the coefficients' encodings through gf's int tables,
converted once per call: powmod squares and reduces, and poly_gcd takes its
remainders, without leaving the ints.  One long division (divmod and //)
runs its FieldElem loop on every field.  Above the cap a product is one
packed integer product and Modulus reduces by folding.  poly_gcd runs
Euclid on pseudo-remainders there (von zur Gathen-Gerhard, Modern Computer
Algebra, ch. 6): a step replaces A by lc(B) A - lc(A) x^k B, two packed
products summed and folded once, so the gcd takes one inverse, in its final
monic(), where long division takes one per remainder.  All three check
every coefficient's field before they pack.

The star operation sends P to conj(P(0))^{-1} T^deg conj(P)(1/T); its roots
are the conjugate-inverses r^{-q} of the roots of P.  Factoring the
characteristic polynomial of a unitary matrix therefore yields an involution
on the irreducible factors, which factor() computes and validates.  A
factorization claimed by whoever built the polynomial is checked instead of
recomputed (certify_factorization), and ends in the same pairing step.
"""

from __future__ import annotations

import random
from functools import cached_property

from . import gf
from .errors import CrossCheckError, InputError, InvariantError, Record
from .gf import FieldElem, encode_int


# A random try splits a product of at least two distinct roots (Berlekamp's
# trace split in dl) or irreducibles (Cantor-Zassenhaus here) with
# probability at least 1/3, so a product left unsplit after this many tries
# (odds (2/3)^64 < 1e-11) means broken arithmetic or a factor without roots
# in its field.
SPLIT_TRIES = 64


class Poly(Record):
    """Polynomial over F_{p^level}; coeffs is little-endian, with no
    trailing zeros."""

    __slots__ = _fields = ("p", "level", "coeffs")

    def __init__(self, p: int, level: int, coeffs: tuple[FieldElem, ...]):
        if coeffs and coeffs[-1].is_zero:
            raise InputError("leading coefficient must be nonzero")
        _set_p(self, p)
        _set_level(self, level)
        _set_coeffs(self, coeffs)

    # ----- constructors -------------------------------------------------
    @staticmethod
    def from_elems(p, level, coeffs) -> "Poly":
        c = list(coeffs)
        while c and c[-1].is_zero:
            c.pop()
        return Poly(p, level, tuple(c))

    @staticmethod
    def zero(p, level) -> "Poly":
        return Poly(p, level, ())

    @staticmethod
    def one(p, level) -> "Poly":
        return Poly(p, level, (gf.one(p, level),))

    @staticmethod
    def x(p, level) -> "Poly":
        return Poly(p, level, (gf.zero(p, level), gf.one(p, level)))

    @staticmethod
    def x_minus(c: FieldElem) -> "Poly":
        return Poly(c.p, c.level, (-c, gf.one(c.p, c.level)))

    # ----- basic queries ------------------------------------------------
    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # zero polynomial has degree -1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and encode_int(self.coeffs[-1]) == 1

    @property
    def leading(self) -> FieldElem:
        return self.coeffs[-1]

    def coeff(self, i: int) -> FieldElem:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else gf.zero(self.p, self.level)

    def _check(self, other: "Poly"):
        if self.p != other.p or self.level != other.level:
            raise InputError("polynomials over different fields")

    # ----- arithmetic ---------------------------------------------------
    def __sub__(self, other):
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly.from_elems(self.p, self.level, [self.coeff(i) - other.coeff(i) for i in range(n)])

    def __mul__(self, other):
        self._check(other)
        p, level, a, b = self.p, self.level, self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(p, level)
        enc = gf.index_rows(a, b)
        if enc is not None:
            t, (x, y) = enc
            return _from_indexed(p, level, t, _mul_indexed(t, x, y))
        # Kronecker substitution one level up: one packed product, and each
        # product coefficient folded once
        gf.check_field(p, level, a, b)
        width = gf.slot_width(p, level, min(len(a), len(b)))
        prod = gf.pack_blocks(p, level, width, a) * gf.pack_blocks(p, level, width, b)
        return Poly.from_elems(p, level, gf.fold_blocks(p, level, width, len(a) + len(b) - 1, prod))

    def scale(self, c: FieldElem) -> "Poly":
        return Poly.from_elems(self.p, self.level, [a * c for a in self.coeffs])

    def __divmod__(self, other):
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        rem = list(self.coeffs)
        q = [gf.zero(self.p, self.level)] * max(len(rem) - len(other.coeffs) + 1, 0)
        # a monic divisor needs no inverse
        inv = None if other.is_monic else other.leading.inverse()
        d = other.degree
        while len(rem) > d:
            while rem and rem[-1].is_zero:
                rem.pop()
            if len(rem) <= d:
                break
            k = len(rem) - 1 - d
            c = rem[-1] if inv is None else rem[-1] * inv
            q[k] = c
            for j, bj in enumerate(other.coeffs):
                rem[k + j] = rem[k + j] - c * bj
            if not rem[-1].is_zero:
                raise CrossCheckError("long division left a leading term: the arithmetic is broken")
        return (Poly.from_elems(self.p, self.level, q), Poly.from_elems(self.p, self.level, rem))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def monic(self) -> "Poly":
        if self.is_zero or self.is_monic:
            return self
        return self.scale(self.leading.inverse())

    def powmod(self, e: int, modulus: "Poly") -> "Poly":
        """self^e mod modulus, of positive degree, by squaring: over a tabled
        field on encodings from start to end, above the cap on Modulus's fold."""
        self._check(modulus)
        if modulus.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        if modulus.degree < 1:
            raise InputError("a modulus must be of positive degree")
        enc = gf.index_rows(self.coeffs, modulus.coeffs)
        if enc is not None:
            t, (base, m) = enc
            result = gf.power(_divmod_indexed(t, base, m)[1], e,
                              lambda a, b: _divmod_indexed(t, _mul_indexed(t, a, b), m)[1], [1])
            return _from_indexed(self.p, self.level, t, result)
        gf.check_field(self.p, self.level, self.coeffs, modulus.coeffs)
        return Modulus(modulus.monic()).power(self, e)

    def derivative(self) -> "Poly":
        out = []
        for i in range(1, len(self.coeffs)):
            out.append(self.coeffs[i] * gf.from_base(self.p, self.level, i))
        return Poly.from_elems(self.p, self.level, out)

    def lift(self, target_level: int) -> "Poly":
        """Map every coefficient through the deterministic embedding."""
        return Poly.from_elems(self.p, target_level, [gf.embed(c, target_level) for c in self.coeffs])

    def to_json(self):
        return [list(c.coeffs) for c in self.coeffs]


_set_p, _set_level, _set_coeffs = Poly._setters


# ---------------------------------------------------------------------------
# kernels on encodings: little-endian int lists and the tables t of
# gf.index_rows


def _from_indexed(p, level, t, coeffs) -> Poly:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return Poly(p, level, tuple(map(t.elems.__getitem__, coeffs)))


def _mul_indexed(t, a, b):
    add, mul = t.add, t.mul
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            mx, j = mul[x], i
            for y in b:
                out[j] = add[out[j]][mx[y]]
                j += 1
    return out


def _divmod_indexed(t, a, b):
    # long division by b (nonzero leading entry), step for step the
    # FieldElem loop of Poly.__divmod__; a trimmed a leaves a trimmed
    # remainder.  Only powmod and poly_gcd, which chain divisions, use it
    sub, mul = t.sub, t.mul
    rem, d = list(a), len(b) - 1
    q = [0] * max(len(rem) - d, 0)
    inv = None if b[-1] == 1 else t.inv[b[-1]]  # a monic divisor needs no inverse
    while len(rem) > d:
        while rem and not rem[-1]:
            rem.pop()
        if len(rem) <= d:
            break
        k = len(rem) - 1 - d
        c = rem[-1] if inv is None else mul[rem[-1]][inv]
        q[k] = c
        mc, j = mul[c], k
        for y in b:
            rem[j] = sub[rem[j]][mc[y]]
            j += 1
        if rem[-1]:
            raise CrossCheckError("long division left a leading term: the arithmetic is broken")
    return q, rem


class Modulus:
    """Residues modulo a fixed monic g of degree d >= 1, reduced by folding
    instead of long division; powmod takes it above the table cap.

    rows[m - d] packs x^m mod g for d <= m <= 2d - 1.  A product of two
    residues is one packed product (Poly.__mul__'s); its blocks d..2d-2 are
    folded to coefficients c_m, and sum c_m (x^m mod g) is added to the
    unfolded low blocks as one more packed sum, so each coefficient of the
    residue is folded once more: the fold of gf's element product, one
    level up.  A slot then holds at most 2d - 1 products."""

    def __init__(self, g: Poly):
        if not g.is_monic or g.degree < 1:
            raise InputError("a modulus must be monic of positive degree")
        p, level, d = g.p, g.level, g.degree
        self.g, self.p, self.level, self.d = g, p, level, d
        self.width = gf.slot_width(p, level, 2 * d)
        self.bits = (2 * level - 1) * 8 * self.width  # one block

    @cached_property
    def rows(self) -> list:
        # built on first read: a residue that needs no folding (the trace
        # split's power 1 at p = 3) reads none
        p, level, d, width = self.p, self.level, self.d, self.width
        cur = [-c for c in self.g.coeffs[:-1]]  # x^d mod g
        rows = [gf.pack_blocks(p, level, width, cur)]
        for _ in range(1, d):
            # x^(m+1) mod g is x^m mod g moved up one block, its top block
            # folded back with rows[0]
            shifted = (rows[-1] << self.bits) & ((1 << d * self.bits) - 1)
            cur = self._fold_high(shifted, d, cur[-1:], rows)
            rows.append(gf.pack_blocks(p, level, width, cur))
        return rows

    def _fold_high(self, acc: int, count: int, high, rows) -> list:
        # acc + sum high[i] (x^(d+i) mod g), folded once per block, with
        # rows[i] = x^(d+i) mod g
        p, level, width = self.p, self.level, self.width
        for c, row in zip(high, rows):
            if not c.is_zero:
                acc += gf.pack_blocks(p, level, width, (c,)) * row
        return gf.fold_blocks(p, level, width, count, acc)

    def reduce(self, f: Poly) -> Poly:
        """f mod g, folding at most d coefficients above the residue at a time."""
        p, level, d = self.p, self.level, self.d
        coeffs = list(f.coeffs)
        cut = max(len(coeffs) - 2 * d, 0)
        rest, coeffs = coeffs[:cut], coeffs[cut:]
        while True:
            if len(coeffs) > d:
                low = gf.pack_blocks(p, level, self.width, coeffs[:d])
                coeffs = self._fold_high(low, d, coeffs[d:], self.rows)
            if not rest:
                return Poly.from_elems(p, level, coeffs)
            k = min(d, len(rest))
            rest, coeffs = rest[:-k], rest[-k:] + coeffs

    def mul(self, a: Poly, b: Poly) -> Poly:
        """a b mod g for residues a and b (degree < d)."""
        p, level, d, width = self.p, self.level, self.d, self.width
        if a.is_zero or b.is_zero:
            return Poly.zero(p, level)
        pa = gf.pack_blocks(p, level, width, a.coeffs)
        prod = pa * (pa if b is a else gf.pack_blocks(p, level, width, b.coeffs))
        count = len(a.coeffs) + len(b.coeffs) - 1
        if count <= d:
            return Poly.from_elems(p, level, gf.fold_blocks(p, level, width, count, prod))
        cut = d * self.bits
        high = gf.fold_blocks(p, level, width, count - d, prod >> cut)
        return Poly.from_elems(p, level, self._fold_high(prod & ((1 << cut) - 1), d, high, self.rows))

    def power(self, f: Poly, e: int) -> Poly:
        """f^e mod g by squaring (gf.power)."""
        return gf.power(self.reduce(f), e, self.mul, Poly.one(self.p, self.level))


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by Euclid: remainders on encodings over a tabled field,
    packed pseudo-remainders above the cap.

    Above the cap each step replaces A by lc(B) A - lc(A) x^k B, k = deg A -
    deg B: two integer products into slots sized for two terms, added and
    folded once.  The top block must fold to zero, and no inverse is taken
    until the final monic()."""
    a._check(b)
    enc = gf.index_rows(a.coeffs, b.coeffs)
    if enc is not None:
        t, (x, y) = enc
        while y:
            x, y = y, _divmod_indexed(t, x, y)[1]
        if x and x[-1] != 1:
            scale = t.mul[t.inv[x[-1]]]
            x = [scale[c] for c in x]
        return _from_indexed(a.p, a.level, t, x)
    p, level = a.p, a.level
    gf.check_field(p, level, a.coeffs, b.coeffs)
    x, y = sorted((list(a.coeffs), list(b.coeffs)), key=len, reverse=True)
    width = gf.slot_width(p, level, 2)
    bits = (2 * level - 1) * 8 * width  # one block
    while y:
        packed_y = gf.pack_blocks(p, level, width, y)
        lead_y = gf.pack_blocks(p, level, width, y[-1:])
        while len(x) >= len(y):
            neg_lead_x = gf.pack_blocks(p, level, width, (-x[-1],))
            acc = lead_y * gf.pack_blocks(p, level, width, x) + (neg_lead_x * packed_y << (len(x) - len(y)) * bits)
            x = gf.fold_blocks(p, level, width, len(x), acc)
            if not x.pop().is_zero:
                raise CrossCheckError("long division left a leading term: the arithmetic is broken")
            while x and x[-1].is_zero:
                x.pop()
        x, y = y, x
    return Poly.from_elems(p, level, x).monic()


def poly_key(f: Poly):
    """Canonical sort key: (degree, integer encodings of the coefficients)."""
    return (f.degree, tuple(encode_int(c) for c in f.coeffs))


# ---------------------------------------------------------------------------
# the conjugate-reciprocal involution


def star(f: Poly) -> Poly:
    """Conjugate-reciprocal of a level-2 polynomial with nonzero constant term.

    Roots of star(f) are exactly the r^{-q} for roots r of f; the output is
    monic, and star is an involution on monic inputs.
    """
    if f.level != 2:
        raise InputError("star is defined over the quadratic extension")
    if f.is_zero or f.coeffs[0].is_zero:
        raise InputError("star requires a nonzero constant term")
    rev = [gf.conj(c) for c in reversed(f.coeffs)]
    return Poly.from_elems(f.p, f.level, rev).monic()


# ---------------------------------------------------------------------------
# factorization


def _pth_root(f: Poly) -> Poly:
    # f(T) = u(T^p); coefficient p-th roots are c^(p^(level-1))
    p = f.p
    out = []
    for i, c in enumerate(f.coeffs):
        if i % p == 0:
            out.append(c ** (p ** (f.level - 1)))
        elif not c.is_zero:
            raise CrossCheckError("polynomial is not a p-th power")
    return Poly.from_elems(f.p, f.level, out)


def _squarefree(f: Poly):
    # monic f -> list of (monic squarefree g, multiplicity), pairwise coprime
    out = []
    fp = f.derivative()
    if fp.is_zero:
        return [(g, m * f.p) for g, m in _squarefree(_pth_root(f))]
    c = poly_gcd(f, fp)
    w = (f // c).monic()
    m = 1
    while w.degree > 0:
        y = poly_gcd(w, c)
        z = (w // y).monic()
        if z.degree > 0:
            out.append((z, m))
        w = y
        c = (c // y).monic()
        m += 1
    if c.degree > 0:
        out.extend((g, mm * f.p) for g, mm in _squarefree(_pth_root(c)))
    return out


def _distinct_degree(f: Poly):
    # monic squarefree f -> list of (product of irreducibles of degree d, d)
    out = []
    q_size = f.p**f.level
    x = h = Poly.x(f.p, f.level)
    d = 0
    # a factor of degree d needs 2d <= deg f; the rest is the tail
    while f.degree >= 2 * (d + 1):
        d += 1
        h = h.powmod(q_size, f)
        g = poly_gcd(h - x, f)
        if g.degree > 0:
            out.append((g, d))
            f = (f // g).monic()
    if f.degree > 0:
        out.append((f, f.degree))
    return out


def _random_poly(p, level, max_deg, rng) -> Poly:
    coeffs = [gf.random_elem(p, level, rng) for _ in range(max_deg + 1)]
    return Poly.from_elems(p, level, coeffs)


def _equal_degree(f: Poly, d: int, rng) -> list[Poly]:
    # Cantor-Zassenhaus split of a product of irreducibles of common degree d
    if f.degree == d:
        return [f.monic()]
    q_size = f.p**f.level
    m = (q_size**d - 1) // 2
    for _ in range(SPLIT_TRIES):
        r = _random_poly(f.p, f.level, f.degree - 1, rng)
        if r.degree < 1:
            continue
        g = poly_gcd(r, f)
        if 0 < g.degree < f.degree:
            break
        s = r.powmod(m, f) - Poly.one(f.p, f.level)
        g = poly_gcd(s, f)
        if 0 < g.degree < f.degree:
            break
    else:
        raise CrossCheckError(f"no Cantor-Zassenhaus split of a degree-{f.degree} product in {SPLIT_TRIES} tries")
    return _equal_degree(g, d, rng) + _equal_degree((f // g).monic(), d, rng)


def is_irreducible(f: Poly) -> bool:
    # a square P^2 splits as [(P, d), (P, d)], so f need not be squarefree
    return f.degree > 0 and _distinct_degree(f.monic()) == [(f.monic(), f.degree)]


def plain_factor(f: Poly) -> list[tuple[Poly, int]]:
    """Complete factorization into monic irreducibles, canonically sorted.

    Over a tabled field every root leaves first with its multiplicity, by
    repeated synthetic division; the squarefree, distinct-degree and
    Cantor-Zassenhaus steps see the root-free cofactor, and none runs when
    it is constant.  No star-pairing constraints: this is the route for
    polynomials that do not come from unitary elements."""
    if not f.is_monic or f.degree < 1:
        raise InputError("factorization requires a monic polynomial of positive degree")
    found: dict[tuple, tuple[Poly, int]] = {}
    enc = gf.index_rows(f.coeffs)
    if enc is not None:
        # over a tabled field every linear factor is a root: evaluate at
        # each element in turn and divide it out (Horner's synthetic
        # division on encodings) while it stays a root, so only the
        # root-free cofactor is split below
        t, (c,) = enc
        add, mul = t.add, t.mul
        for a in range(len(t.elems)):
            if len(c) == 1:
                break
            ma, mult = mul[a], 0
            while len(c) > 1:
                acc, quo = 0, []
                for x in reversed(c):
                    acc = add[x][ma[acc]]
                    quo.append(acc)
                if quo.pop():  # the remainder f(a)
                    break
                c, mult = quo[::-1], mult + 1
            if mult:
                root = Poly.x_minus(t.elems[a])
                found[poly_key(root)] = (root, mult)
        f = _from_indexed(f.p, f.level, t, c)
    if f.degree > 0:
        rng = random.Random(f"factor:{f.p}:{f.level}")
        for g, mult in _squarefree(f):
            for h, d in _distinct_degree(g):
                for irr in _equal_degree(h, d, rng):
                    key = poly_key(irr)
                    prev, m0 = found.get(key, (irr, 0))
                    found[key] = (prev, m0 + mult)
    return [pair for _, pair in sorted(found.items())]


class FactoredPoly(Record):
    """Factorization P = prod P_i^{a_i} plus the star involution on indices.

    factors holds the pairs (P_i, a_i); pairing[i] = j means star(P_i) = P_j.
    """

    __slots__ = _fields = ("factors", "pairing")

    def self_paired(self) -> list[int]:
        return [i for i, j in enumerate(self.pairing) if i == j]

    def pairs(self) -> list[tuple[int, int]]:
        return [(i, j) for i, j in enumerate(self.pairing) if i < j]


def _star_paired(flat) -> FactoredPoly:
    """The star pairing on a sorted factorization into distinct monic
    irreducibles, with the constraints that make it one: constant terms are
    nonzero, the factor set is closed under star, paired factors have equal
    exponents, and self-paired factors have odd degree."""
    polys = [g for g, _ in flat]
    mults = [m for _, m in flat]
    keys = {poly_key(g): i for i, g in enumerate(polys)}
    pairing = []
    for g in polys:
        if g.coeffs[0].is_zero:
            raise InvariantError("factor has zero constant term; the element is not invertible")
        j = keys.get(poly_key(star(g)))
        if j is None:
            raise InvariantError("star pairing inconsistent: factor set is not closed under star")
        pairing.append(j)
    for i, j in enumerate(pairing):
        if mults[i] != mults[j]:
            raise InvariantError("star pairing inconsistent: exponents differ across the involution")
        if i == j and polys[i].degree % 2 == 0:
            raise InvariantError("self-paired factor of even degree")
    return FactoredPoly(factors=tuple(flat), pairing=tuple(pairing))


def factor(f: Poly) -> FactoredPoly:
    """Factor a characteristic polynomial of a unitary element.

    plain_factor, then the star pairing and its constraints (_star_paired).
    This is the route for every polynomial whose factorization is not known
    in advance: instances read from JSON and Coxeter instances.  A builder
    that drew its factors passes them to certify_factorization instead, and
    factor is the oracle that route is tested against."""
    flat = plain_factor(f)
    fact = _star_paired(flat)
    if power_product(flat) != f.monic():
        raise CrossCheckError("factorization does not reconstruct the input")
    return fact


def certify_factorization(f: Poly, claim) -> FactoredPoly:
    """Check a claimed factorization [(P, a), ...] of f and return it as
    factor(f) would.

    By unique factorization in F[T] the claim is the factorization once
    every P is a monic irreducible (is_irreducible, the distinct-degree
    split), every a >= 1, the P are pairwise distinct and prod P^a equals
    monic(f); then the star pairing is checked as factor checks it.  A false
    claim raises InvariantError: it is refused, never trusted."""
    flat = sorted(claim, key=lambda pair: poly_key(pair[0]))
    if len({poly_key(g) for g, _ in flat}) != len(flat):
        raise InvariantError("claimed factorization repeats a factor")
    for g, a in flat:
        if not g.is_monic or g.degree < 1 or a < 1:
            raise InvariantError("claimed factor is not a monic polynomial of positive degree and exponent")
        if not is_irreducible(g):
            raise InvariantError("claimed factor is not irreducible")
    if not flat or power_product(flat) != f.monic():
        raise InvariantError("claimed factorization does not multiply out to the polynomial")
    return _star_paired(flat)


def power_product(pairs) -> Poly:
    """prod P^a over the pairs (P, a) of a nonempty factorization."""
    out = Poly.one(pairs[0][0].p, pairs[0][0].level)
    for f, a in pairs:
        for _ in range(a):
            out = out * f
    return out

