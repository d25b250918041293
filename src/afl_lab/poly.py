"""Polynomial arithmetic over tower fields and the conjugate-reciprocal star.

A Poly is a little-endian tuple of FieldElem coefficients, all at one level
(level 2 for the characteristic polynomials this package cares about, bigger
even levels inside the eigenline counter).  Factorization is the classical
chain: squarefree decomposition (with p-th root extraction, we are in
characteristic p), distinct-degree splitting, then equal-degree splitting by
Cantor-Zassenhaus with an explicitly threaded seed so reports reproduce.

Over a tabled field (gf.TABLE_CAP) products, long division, powers modulo
a polynomial and gcds run on the coefficients' encodings through gf's int
tables, converted once per call: powmod squares and reduces, and poly_gcd
takes its remainders, without leaving the ints.  Above the cap a product is
one packed integer product and Modulus reduces by folding.

The star operation sends P to conj(P(0))^{-1} T^deg conj(P)(1/T); its roots
are the conjugate-inverses r^{-q} of the roots of P.  Factoring the
characteristic polynomial of a unitary matrix therefore yields an involution
on the irreducible factors, which factor() computes and validates.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from . import gf
from .errors import CrossCheckError, InputError, InvariantError
from .gf import FieldElem, encode_int


# A random try splits a product of at least two distinct roots (Berlekamp's
# trace split in dl) or irreducibles (Cantor-Zassenhaus here) with
# probability at least 1/3, so a product left unsplit after this many tries
# (odds (2/3)^64 < 1e-11) means broken arithmetic or a factor without roots
# in its field.
SPLIT_TRIES = 64

# Most divisors divisor_exponents enumerates: N_MAX bounds the dimension, not
# the lattice (k distinct linear factors have 2^k divisors).  README gives
# the timed runs behind it.
DIVISOR_MAX = 2**17


@dataclass(frozen=True, slots=True)
class Poly:
    p: int
    level: int
    coeffs: tuple[FieldElem, ...]  # little-endian, no trailing zeros

    def __post_init__(self):
        if self.coeffs and self.coeffs[-1].is_zero:
            raise InputError("leading coefficient must be nonzero")

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
    def __add__(self, other):
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly.from_elems(self.p, self.level, [self.coeff(i) + other.coeff(i) for i in range(n)])

    def __sub__(self, other):
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly.from_elems(self.p, self.level, [self.coeff(i) - other.coeff(i) for i in range(n)])

    def __neg__(self):
        return Poly(self.p, self.level, tuple(-c for c in self.coeffs))

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
        width = gf.slot_width(p, level, min(len(a), len(b)))
        prod = gf.pack_blocks(p, level, width, a) * gf.pack_blocks(p, level, width, b)
        return Poly.from_elems(p, level, gf.fold_blocks(p, level, width, len(a) + len(b) - 1, prod))

    def scale(self, c: FieldElem) -> "Poly":
        return Poly.from_elems(self.p, self.level, [a * c for a in self.coeffs])

    def __divmod__(self, other):
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        enc = gf.index_rows(self.coeffs, other.coeffs)
        if enc is not None:
            t, (a, b) = enc
            q, rem = _divmod_indexed(t, a, b)
            return _from_indexed(self.p, self.level, t, q), _from_indexed(self.p, self.level, t, rem)
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
                raise AssertionError("long division left a leading term: the arithmetic is broken")
        return (Poly.from_elems(self.p, self.level, q), Poly.from_elems(self.p, self.level, rem))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

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
            result = [1]
            base = _divmod_indexed(t, base, m)[1]
            while e:
                if e & 1:
                    result = _divmod_indexed(t, _mul_indexed(t, result, base), m)[1]
                base = _divmod_indexed(t, _mul_indexed(t, base, base), m)[1]
                e >>= 1
            return _from_indexed(self.p, self.level, t, result)
        return Modulus(modulus.monic()).power(self, e)

    def derivative(self) -> "Poly":
        out = []
        for i in range(1, len(self.coeffs)):
            out.append(self.coeffs[i] * gf.from_base(self.p, self.level, i))
        return Poly.from_elems(self.p, self.level, out)

    def __call__(self, x: FieldElem) -> FieldElem:
        acc = gf.zero(x.p, x.level)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def lift(self, target_level: int) -> "Poly":
        """Map every coefficient through the deterministic embedding."""
        return Poly.from_elems(self.p, target_level, [gf.embed(c, target_level) for c in self.coeffs])

    def to_json(self):
        return [list(c.coeffs) for c in self.coeffs]


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
    # FieldElem loop of Poly.__divmod__; a trimmed a leaves a trimmed remainder
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
            raise AssertionError("long division left a leading term: the arithmetic is broken")
    return q, rem


class Modulus:
    """Residues modulo a fixed monic g of degree d >= 1, over a field above
    the table cap, reduced by folding instead of long division.

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
        self.p, self.level, self.d = p, level, d
        self.width = gf.slot_width(p, level, 2 * d)
        self.bits = (2 * level - 1) * 8 * self.width  # one block
        cur = [-c for c in g.coeffs[:-1]]  # x^d mod g
        self.rows = [gf.pack_blocks(p, level, self.width, cur)]
        for _ in range(1, d):
            # x^(m+1) mod g is x^m mod g moved up one block, its top block
            # folded back with rows[0]
            shifted = (self.rows[-1] << self.bits) & ((1 << d * self.bits) - 1)
            cur = self._fold_high(shifted, d, cur[-1:])
            self.rows.append(gf.pack_blocks(p, level, self.width, cur))

    def _fold_high(self, acc: int, count: int, high) -> list:
        # acc + sum high[i] (x^(d+i) mod g), folded once per block
        p, level, width = self.p, self.level, self.width
        for c, row in zip(high, self.rows):
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
                coeffs = self._fold_high(low, d, coeffs[d:])
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
        return Poly.from_elems(p, level, self._fold_high(prod & ((1 << cut) - 1), d, high))

    def power(self, f: Poly, e: int) -> Poly:
        """f^e mod g by squaring."""
        result, base = None, self.reduce(f)
        while e:
            if e & 1:
                result = base if result is None else self.mul(result, base)
            e >>= 1
            if e:
                base = self.mul(base, base)
        return Poly.one(self.p, self.level) if result is None else result


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by Euclid's remainders, on encodings over a tabled field."""
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
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


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
            raise AssertionError("polynomial is not a p-th power")
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
    x = Poly.x(f.p, f.level)
    h = x % f
    d = 0
    while f.degree > 2 * d:
        d += 1
        h = h.powmod(q_size, f)
        g = poly_gcd(h - x, f)
        if g.degree > 0:
            out.append((g, d))
            f = (f // g).monic()
            h = h % f
    if f.degree > 0:
        out.append((f, f.degree))
    return out


def _random_poly(p, level, max_deg, rng) -> Poly:
    coeffs = [gf.elem(p, level, [rng.randrange(p) for _ in range(level)]) for _ in range(max_deg + 1)]
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
    if f.degree < 1:
        return False
    q_size = f.p**f.level
    x = Poly.x(f.p, f.level)
    h = x % f
    for _ in range(f.degree // 2):
        h = h.powmod(q_size, f)
        if poly_gcd(h - x, f).degree > 0:
            return False
    return True


def plain_factor(f: Poly, seed) -> list[tuple[Poly, int]]:
    """Complete factorization into monic irreducibles, canonically sorted.

    No star-pairing constraints: this is the route for polynomials that do
    not come from unitary elements."""
    if not f.is_monic or f.degree < 1:
        raise InputError("factorization requires a monic polynomial of positive degree")
    rng = random.Random(f"factor:{f.p}:{f.level}:{seed}")
    found: dict[tuple, tuple[Poly, int]] = {}
    for g, mult in _squarefree(f):
        for h, d in _distinct_degree(g):
            for irr in _equal_degree(h, d, rng):
                key = poly_key(irr)
                prev, m0 = found.get(key, (irr, 0))
                found[key] = (prev, m0 + mult)
    return [pair for _, pair in sorted(found.items())]


@dataclass(frozen=True)
class FactoredPoly:
    """Factorization P = prod P_i^{a_i} plus the star involution on indices.

    pairing[i] = j means star(P_i) = P_j.
    """

    factors: tuple[tuple[Poly, int], ...]
    pairing: tuple[int, ...]

    def __len__(self):
        return len(self.factors)

    def self_paired(self) -> list[int]:
        return [i for i, j in enumerate(self.pairing) if i == j]

    def pairs(self) -> list[tuple[int, int]]:
        return [(i, j) for i, j in enumerate(self.pairing) if i < j]

    def product(self) -> Poly:
        p, level = self.factors[0][0].p, self.factors[0][0].level
        out = Poly.one(p, level)
        for f, a in self.factors:
            for _ in range(a):
                out = out * f
        return out


def factor(f: Poly, seed) -> FactoredPoly:
    """Factor a characteristic polynomial of a unitary element.

    On top of plain factorization this computes the star pairing and enforces
    the constraints that make it one: every factor has a star partner with the
    same exponent, constant terms are nonzero, and self-paired factors have
    odd degree.
    """
    flat = plain_factor(f, seed)
    polys = [g for g, _ in flat]
    mults = [m for _, m in flat]
    keys = {poly_key(g): i for i, g in enumerate(polys)}
    pairing = []
    for i, g in enumerate(polys):
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
    fact = FactoredPoly(factors=tuple(flat), pairing=tuple(pairing))
    if fact.product() != f.monic():
        raise AssertionError("factorization does not reconstruct the input")
    return fact


def factor_pairs(fact) -> list[tuple[Poly, int]]:
    # accepts a FactoredPoly or a plain sequence of (poly, multiplicity)
    return list(fact.factors) if isinstance(fact, FactoredPoly) else list(fact)


def divisor_exponents(fact) -> list[tuple[int, ...]]:
    """All exponent vectors (m_1..m_l), 0 <= m_i <= a_i, in lexicographic order.

    InputError when there are more than DIVISOR_MAX of them."""
    ranges = [range(a + 1) for _, a in factor_pairs(fact)]
    count = math.prod(len(r) for r in ranges)
    if count > DIVISOR_MAX:
        raise InputError(f"the invariant subspace lattice has {count} divisors, more than {DIVISOR_MAX}")
    return list(itertools.product(*ranges))
