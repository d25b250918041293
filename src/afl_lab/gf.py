"""Exact arithmetic in F_p and the even extension tower F_{p^2} < F_{p^{2t}}.

An element of F_{p^d} is a dense little-endian coefficient vector in the
power basis of a fixed monic irreducible of degree d over F_p.  The defining
polynomial of each degree is the *smallest* monic irreducible, where monic
polynomials are ordered by their integer encoding sum(c_i * p^i) with the
constant term least significant.  This pins every tower, every embedding,
and hence every downstream report to one reproducible choice, with no table
of Conway polynomials to depend on.

Only the levels this project needs exist: level 2 carries the quadratic
extension with its q-power conjugation (q = p), and even levels 2t carry
the fields the eigenline enumeration works in, where tau is the q^2-power
Frobenius.  Defining polynomials are pure cached functions of (p, degree),
so independently built towers with the same p agree on shared levels.

Every computation inside a field runs on two maps.  The product is
Kronecker substitution (von zur Gathen-Gerhard, Modern Computer Algebra,
sec. 8.4): both coefficient vectors are packed into one integer each,
multiplied once, and the high slots of the product are folded back with
precomputed x^i mod f.  Above the table cap a sum of products is one
multiply-accumulate: its packed products are added as integers and the sum
is folded once (dot, and pack_blocks/fold_blocks, where element k of a list
sits in block k of 2 level - 1 slots, so that one integer product of two
packed lists is a polynomial product over the field with every coefficient
folded once; slot_width sizes the slots for the number of terms).  The
Frobenius x -> x^(p^k) is F_p-linear and sends gen^i to y^i,
y = gen^(p^k): one cached table of the packed y^i, applied with one
multiply-accumulate per nonzero coefficient and one unpack; the trace down
to F_{q^2} is one such table too.  The inverse is Itoh-Tsujii's (Inform.
Comput. 78, 1988): a^-1 = a^(p + ... + p^(L-1)) / N(a), L - 1 Frobenius
steps and products.

Small fields compute by table (Lidl-Niederreiter, Finite Fields, ch. 9):
when p**level <= TABLE_CAP (F_9 up to F_169 at level 2, F_27, F_81, F_125,
F_243, and F_p for p <= 251) every value is one interned FieldElem indexed
by its encode_int.  One set of int tables on encodings, add, sub, mul, inv
and frob, is built from the Kronecker powers of a primitive element on the
first operation in that field, never at import or in make_tower.  Elements
read them and return the interned result; index_rows hands a kernel
(matrix products, conjugation, echelon forms, characteristic polynomials,
polynomial products, division and powers) the same tables with its
operands as int lists, so its inner loop runs on ints and wraps its result
once at exit.  Larger levels (the eigenline fields, and F_{q^2} for
q >= 17) apply the two maps directly, on the same FieldElem class.

The F_p[x] helpers on little-endian int lists serve only the definition of
the fields: the irreducibility test behind defining_poly and the reduction
rows of the packed products.  They are not Poly, which is built on the
fields they define.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from functools import lru_cache
from itertools import chain
from math import isqrt
from struct import Struct

from .errors import InputError

# ---------------------------------------------------------------------------
# base-field polynomial helpers (little-endian int lists over F_p), for
# defining_poly and the reduction rows of the packed products only


def _trim(v):
    while v and v[-1] == 0:
        v.pop()
    return v


def _psub(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return _trim(out)


def _pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _trim([c % p for c in out])


def _pmod(a, b, p):
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    r = list(a)
    inv = pow(b[-1], -1, p)
    while len(r) >= len(b) and r:
        k = len(r) - len(b)
        c = (r[-1] * inv) % p
        for j, bj in enumerate(b):
            r[k + j] = (r[k + j] - c * bj) % p
        _trim(r)
    return r


def _pgcd(a, b, p):
    # a gcd, not normalized: callers only read its degree
    while b:
        a, b = b, _pmod(a, b, p)
    return a


def _ppowmod(a, e, m, p):
    result = [1]
    base = _pmod(a, m, p)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, base, p), m, p)
        base = _pmod(_pmul(base, base, p), m, p)
        e >>= 1
    return result


# Largest accepted p, itself prime.  The cost that grows with p is the scan
# in defining_poly, which tries the monic polynomials from T^d upwards; see
# there for how it avoids the binomials T^d + c that cannot be irreducible.
P_MAX = 16381


def require_odd_prime(p: int, name: str = "p") -> None:
    """Raise InputError unless p is an odd prime of at most P_MAX.

    The bound is tested first, so a huge p never reaches trial division."""
    if p > P_MAX:
        raise InputError(f"{name} must be at most {P_MAX}, got {p}")
    if p < 3 or p % 2 == 0 or any(p % d == 0 for d in range(3, isqrt(p) + 1, 2)):
        raise InputError(f"{name} must be an odd prime, got {p}")


def _is_irreducible_int(f, p):
    # f monic; no irreducible factor of degree <= deg(f)/2 iff irreducible
    d = len(f) - 1
    if d < 1:
        return False
    h = [0, 1]
    for _ in range(d // 2):
        h = _ppowmod(h, p, f, p)
        if len(_pgcd(_psub(h, [0, 1], p), f, p)) > 1:
            return False
    return True


@lru_cache(maxsize=None)
def defining_poly(p: int, degree: int) -> tuple[int, ...]:
    """Smallest monic irreducible of the given degree over F_p.

    Polynomials T^d + c_{d-1} T^{d-1} + ... + c_0 are scanned in increasing
    order of the integer encoding sum(c_i * p^i); the first irreducible wins.

    The encodings below p are the binomials T^d + c.  One is irreducible only
    if every prime factor of d divides p - 1, and 4 | p - 1 when 4 | d
    (Lidl-Niederreiter, Finite Fields, Thm 3.75); otherwise the scan starts
    at p, which picks the same polynomial without p irreducibility tests.
    """
    require_odd_prime(p)
    if degree < 1:
        raise InputError("degree must be positive")
    primes = [r for r in range(2, degree + 1) if degree % r == 0 and all(r % s for s in range(2, r))]
    no_binomial_irreducible = any((p - 1) % r for r in primes) or (degree % 4 == 0 and (p - 1) % 4)
    for enc in range(p if no_binomial_irreducible else 0, p**degree):
        coeffs = []
        e = enc
        for _ in range(degree):
            coeffs.append(e % p)
            e //= p
        coeffs.append(1)
        if _is_irreducible_int(coeffs, p):
            return tuple(coeffs)
    raise AssertionError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------
# field elements

# Fields with at most this many elements compute by table lookup.
TABLE_CAP = 256


def _encode(p, coeffs):
    v = 0
    for c in reversed(coeffs):
        v = v * p + c
    return v


def _decode(p, level, enc):
    coeffs = []
    for _ in range(level):
        coeffs.append(enc % p)
        enc //= p
    return tuple(coeffs)


def _pad(coeffs, level):
    return tuple(coeffs[:level]) + (0,) * max(0, level - len(coeffs))


# above the cap: Kronecker packing (the one-product routines take and return
# coefficient tuples, the packed sums take and return elements)

_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def slot_width(p: int, level: int, terms: int) -> int:
    """Bytes per slot for a packed sum of `terms` products over F_{p^level}.

    Each product of two packed residues adds at most level (p-1)^2 to a slot,
    and folding the high slots back adds at most (level - 1) (p-1)^2, residues
    below p times reduction rows below p.  Slots are whole bytes so struct
    packs and unpacks them; 8 bytes hold over 10^9 terms at P_MAX and level 54
    (dl at T_MAX), far more than any sum here (N_MAX terms at level 2)."""
    bound = (terms * level + level - 1) * (p - 1) ** 2
    for width in (1, 2, 4, 8):
        if bound < 256**width:
            return width
    raise InputError(f"a sum of {terms} products over F_{p}^{level} overflows 8-byte slots")


@lru_cache(maxsize=None)
def _fold_rows(p, level, width):
    # rows[i - level] packs x^i mod f in level slots, for level <= i <= 2 level - 2
    vec = Struct(f"<{level}{_CODES[width]}")
    f = list(defining_poly(p, level))
    rows, cur = [], _pmod([0] * level + [1], f, p)
    for _ in range(level - 1):
        rows.append(int.from_bytes(vec.pack(*_pad(cur, level)), "little"))
        cur = _pmod([0] + cur, f, p)
    return tuple(rows)


@lru_cache(maxsize=None)
def _kronecker(p, level):
    # the layout of one product: level slots per factor, 2 level - 1 for the product
    width = slot_width(p, level, 1)
    code = "<%d" + _CODES[width]
    return 8 * width * level, Struct(code % level), Struct(code % (level - 1)), _fold_rows(p, level, width)


def _kronecker_mul(p, level, a, b):
    # one integer product, then each high slot c_i adds c_i * (x^i mod f)
    cut, vec, high, rows = _kronecker(p, level)
    prod = int.from_bytes(vec.pack(*a), "little") * int.from_bytes(vec.pack(*b), "little")
    acc = prod & ((1 << cut) - 1)
    for c, row in zip(high.unpack((prod >> cut).to_bytes(high.size, "little")), rows):
        c %= p
        if c:
            acc += c * row
    return tuple(c % p for c in vec.unpack(acc.to_bytes(vec.size, "little")))


@lru_cache(maxsize=None)
def _blocks(p, level, width, count):
    # count blocks of 2 level - 1 slots: `low` writes an element into the low
    # level slots of its block (zero above) and reads those slots back, `high`
    # reads the level - 1 high slots of every block; mask keeps the low slots
    code, pad = _CODES[width], (level - 1) * width
    low = Struct("<" + f"{level}{code}{pad}x" * count)
    high = Struct("<" + f"{level * width}x{level - 1}{code}" * count)
    mask = int.from_bytes((b"\xff" * (level * width) + bytes(pad)) * count, "little")
    return low, high, mask


def pack_blocks(p: int, level: int, width: int, elems) -> int:
    """The Kronecker image of sum elems[k] X^k: element k in the low slots of
    block k, blocks of 2 level - 1 slots of `width` bytes.

    A product of two such integers holds in block k the sum over i + j = k of
    the products of the coefficients, each a polynomial of degree at most
    2 level - 2 in gen, with no carry between slots while the number of
    terms stays within slot_width(p, level, terms)."""
    low = _blocks(p, level, width, len(elems))[0]
    return int.from_bytes(low.pack(*chain.from_iterable(x.coeffs for x in elems)), "little")


def fold_blocks(p: int, level: int, width: int, count: int, acc: int) -> list["FieldElem"]:
    """Reduce each of the `count` blocks of a packed sum modulo defining_poly.

    Every block is one element: its high slots are folded back with the
    rows x^i mod f (one multiply-accumulate per nonzero high slot), all
    blocks are unpacked at once and each slot is reduced mod p once."""
    low, high, mask = _blocks(p, level, width, count)
    rows = _fold_rows(p, level, width)
    h, size = level - 1, (2 * level - 1) * width
    highs = [c % p for c in high.unpack(acc.to_bytes(low.size, "little"))]
    folds = []
    for k in range(0, count * h, h) if h else ():
        fold = 0
        for c, row in zip(highs[k : k + h], rows):
            if c:
                fold += c * row
        folds.append(fold.to_bytes(size, "little"))
    acc = (acc & mask) + int.from_bytes(b"".join(folds), "little")
    flat = [c % p for c in low.unpack(acc.to_bytes(low.size, "little"))]
    if p**level <= TABLE_CAP:
        elems = _tables(p, level).elems
        return [elems[_encode(p, flat[k : k + level])] for k in range(0, len(flat), level)]
    return [_new_elem(p, level, tuple(flat[k : k + level]), None, None) for k in range(0, len(flat), level)]


def dot(xs, ys) -> "FieldElem":
    """sum(x * y) over the pairs of two vectors over one field; terms with a
    zero x are skipped (matrices here are sparse).

    Tabled fields add table products on encodings.  Above the cap the packed
    products are summed as integers and the sum is folded once: one
    reduction per dot product instead of one per term.  Vectors of unequal
    length, or any entry from another field, raise InputError."""
    if len(xs) != len(ys):
        raise InputError("dot product of vectors of unequal length")
    enc = index_rows(xs, ys)
    if enc is not None:
        t, (a, b) = enc
        add, mul = t.add, t.mul
        acc = 0
        for x, y in zip(a, b):
            if x:
                acc = add[acc][mul[x][y]]
        return t.elems[acc]
    x0 = xs[0]
    p, level = x0.p, x0.level
    width = slot_width(p, level, len(xs))
    vec = _blocks(p, level, width, 1)[0]
    acc = 0
    for a, b in zip(xs, ys):
        if a.level != level or b.level != level or a.p != p or b.p != p:
            raise InputError("elements live in different fields")
        if any(a.coeffs):
            acc += int.from_bytes(vec.pack(*a.coeffs), "little") * int.from_bytes(vec.pack(*b.coeffs), "little")
    return fold_blocks(p, level, width, 1, acc)[0]


def _norm_inverse(p, level, a):
    # Itoh-Tsujii: b = a^(p + ... + p^(level-1)) is the product of the other
    # conjugates of a, so a b = N(a) lies in F_p^* and a^-1 = b / N(a)
    b, conj = _pad((1,), level), a
    for _ in range(level - 1):
        conj = _frob_apply(p, level, 1, conj)
        b = _kronecker_mul(p, level, b, conj)
    norm = _kronecker_mul(p, level, a, b)
    if not norm[0] or any(norm[1:]):
        raise AssertionError("norm of a nonzero element is not a nonzero scalar")
    inv = pow(norm[0], -1, p)
    return tuple(c * inv % p for c in b)


class FieldElem:
    """Element of F_{p^level} in the power basis of defining_poly(p, level).

    Immutable; equal, hashed and printed by (p, level, coeffs).  When
    p**level <= TABLE_CAP each value has exactly one instance, carrying its
    encode_int and its field's _Tables, and an operation returns the
    instance of the encoding an int table gives.  Larger fields compute on
    the coefficient tuples and wrap the residues they return with
    _new_elem; only the constructor validates, for inputs from outside.
    """

    __slots__ = ("p", "level", "coeffs", "_enc", "_tables")

    def __new__(cls, p: int, level: int, coeffs: tuple[int, ...]):
        if len(coeffs) != level:
            raise InputError("coefficient vector length must equal the level")
        if any(c < 0 or c >= p for c in coeffs):
            raise InputError("coefficients must be residues in [0, p)")
        if p**level <= TABLE_CAP:
            return _tables(p, level).elems[_encode(p, coeffs)]
        return _new_elem(p, level, coeffs, None, None)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return FieldElem, (self.p, self.level, self.coeffs)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not FieldElem:
            return NotImplemented
        return self.p == other.p and self.level == other.level and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.p, self.level, self.coeffs))

    def __repr__(self):
        return f"FieldElem(p={self.p!r}, level={self.level!r}, coeffs={self.coeffs!r})"

    def _check(self, other: "FieldElem"):
        if self.p != other.p or self.level != other.level:
            raise InputError("elements live in different fields")

    @property
    def is_zero(self) -> bool:
        if self._tables is not None:
            return not self._enc
        return not any(self.coeffs)

    def __bool__(self):
        return not self.is_zero

    def __add__(self, other):
        t = self._tables
        if t is not None and t is other._tables:
            return t.elems[t.add[self._enc][other._enc]]
        self._check(other)
        p = self.p
        return _new_elem(p, self.level, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)), None, None)

    def __sub__(self, other):
        t = self._tables
        if t is not None and t is other._tables:
            return t.elems[t.sub[self._enc][other._enc]]
        self._check(other)
        p = self.p
        return _new_elem(p, self.level, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)), None, None)

    def __neg__(self):
        t = self._tables
        if t is not None:
            return t.elems[t.sub[0][self._enc]]
        p = self.p
        return _new_elem(p, self.level, tuple((-a) % p for a in self.coeffs), None, None)

    def __mul__(self, other):
        t = self._tables
        if t is not None and t is other._tables:
            return t.elems[t.mul[self._enc][other._enc]]
        self._check(other)
        return _new_elem(self.p, self.level, _kronecker_mul(self.p, self.level, self.coeffs, other.coeffs), None, None)

    def inverse(self) -> "FieldElem":
        """Multiplicative inverse."""
        if self.is_zero:
            raise ZeroDivisionError("zero has no inverse")
        t = self._tables
        if t is not None:
            return t.elems[t.inv[self._enc]]
        return _new_elem(self.p, self.level, _norm_inverse(self.p, self.level, self.coeffs), None, None)

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, e: int) -> "FieldElem":
        if e < 0:
            return self.inverse() ** (-e)
        result = one(self.p, self.level)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result


# the slot descriptors write past the frozen __setattr__
_set_p, _set_level, _set_coeffs, _set_enc, _set_tables = (getattr(FieldElem, s).__set__ for s in FieldElem.__slots__)


def _new_elem(p, level, coeffs, enc, tables):
    x = object.__new__(FieldElem)
    _set_p(x, p)
    _set_level(x, level)
    _set_coeffs(x, coeffs)
    _set_enc(x, enc)
    _set_tables(x, tables)
    return x


class _Tables:
    """One interned element per value of a small field, elems[a] for encoding
    a, and the field's arithmetic on encodings: the ints add[a][b], sub[a][b]
    (so -a is sub[0][a]), mul[a][b], inv[a] (None at zero) and frob[a].  The
    tables are built on the first access to any of them, so creating elements
    (make_tower, gf.zero, parsing) never pays for them.
    """

    __slots__ = ("p", "level", "elems", "add", "sub", "mul", "inv", "frob")

    def __init__(self, p, level):
        self.p, self.level = p, level
        self.elems = [_new_elem(p, level, _decode(p, level, k), k, self) for k in range(p**level)]

    def __getattr__(self, name):
        # reached only for an unset slot, i.e. before the first arithmetic
        if name not in ("add", "sub", "mul", "inv", "frob"):
            raise AttributeError(name)
        self._build()
        return getattr(self, name)

    def _build(self):
        p, level, vecs = self.p, self.level, [x.coeffs for x in self.elems]
        q = len(vecs)
        self.add = [[_encode(p, [(a + b) % p for a, b in zip(u, v)]) for v in vecs] for u in vecs]
        neg = [_encode(p, [-a % p for a in u]) for u in vecs]
        self.sub = [[row[b] for b in neg] for row in self.add]
        # F^* is cyclic: the powers of the first element of order q - 1 give
        # exp, and products, inverses and p-th powers are sums of logs; the
        # bound on the powers ends the search even if the product is broken
        for g in range(2, q):
            powers = [1]
            x = g
            while x != 1 and len(powers) < q:
                powers.append(x)
                x = _encode(p, _kronecker_mul(p, level, vecs[x], vecs[g]))
            if len(powers) == q - 1:
                break
        else:
            raise AssertionError("no element of order q - 1: the product is broken")
        m = q - 1
        log = [0] * q
        for i, x in enumerate(powers):
            log[x] = i
        self.mul = [[0] * q] + [[0] + [powers[(log[a] + log[b]) % m] for b in range(1, q)] for a in range(1, q)]
        self.inv = [None] + [powers[-log[a] % m] for a in range(1, q)]
        self.frob = [0] + [powers[p * log[a] % m] for a in range(1, q)]


@lru_cache(maxsize=None)
def _tables(p, level):
    return _Tables(p, level)


def index_rows(*vectors):
    """(_Tables, one int list of encodings per vector) for vectors whose
    entries all lie in one tabled field, the field of the first entry.

    None when that field is above TABLE_CAP, or there is no entry: the
    caller keeps its FieldElem loop.  InputError when any entry lies in
    another field.  A kernel calls this once, runs its inner loop on the
    ints and wraps its result in t.elems once, so values still cross module
    boundaries as FieldElems only."""
    for v in vectors:
        if v:
            t = v[0]._tables
            break
    else:
        return None
    if t is None:
        return None
    rows = []
    for v in vectors:
        row = [x._enc for x in v if x._tables is t]
        if len(row) != len(v):
            raise InputError("elements live in different fields")
        rows.append(row)
    return t, rows


def elem(p: int, level: int, coeffs) -> FieldElem:
    """Build an element from an iterable of integers (reduced mod p, padded)."""
    return FieldElem(p, level, _pad([int(c) % p for c in coeffs], level))


@lru_cache(maxsize=None)
def zero(p: int, level: int) -> FieldElem:
    return FieldElem(p, level, (0,) * level)


@lru_cache(maxsize=None)
def one(p: int, level: int) -> FieldElem:
    return FieldElem(p, level, _pad((1,), level))


def gen(p: int, level: int) -> FieldElem:
    """The power-basis generator, i.e. a root of defining_poly(p, level)."""
    return FieldElem(p, level, _pad((0, 1), level))


def from_base(p: int, level: int, c: int) -> FieldElem:
    """Embed the F_p scalar c."""
    return FieldElem(p, level, _pad((c % p,), level))


def encode_int(x: FieldElem) -> int:
    """Canonical integer encoding sum(c_i * p^i); total order used everywhere."""
    if x._tables is not None:
        return x._enc
    return _encode(x.p, x.coeffs)


def elem_from_encoding(p: int, level: int, enc: int) -> FieldElem:
    return FieldElem(p, level, _decode(p, level, enc))


# ---------------------------------------------------------------------------
# Frobenius maps and embeddings


@lru_cache(maxsize=None)
def _packed_frob(p, level, power):
    # x -> x^(p^power) sends gen^i to y^i, y = gen^(p^power); rows[i] packs
    # y^i in the _kronecker slots, and a combination with coefficients below
    # p fills a slot to at most level (p-1)^2
    _, vec, _, _ = _kronecker(p, level)
    y = (gen(p, level) ** (p**power)).coeffs
    rows, img = [], _pad((1,), level)
    for _ in range(level):
        rows.append(int.from_bytes(vec.pack(*img), "little"))
        img = _kronecker_mul(p, level, img, y)
    return vec, tuple(rows)


def _frob_apply(p, level, power, a):
    return _linear_apply(p, _packed_frob(p, level, power), a)


def _linear_apply(p, table, a):
    # an F_p-linear map given by the packed images of the basis: one
    # multiply-accumulate per nonzero coefficient of a, then one unpack
    vec, rows = table
    acc = 0
    for c, row in zip(a, rows):
        if c:
            acc += c * row
    return tuple(c % p for c in vec.unpack(acc.to_bytes(vec.size, "little")))


@lru_cache(maxsize=None)
def _packed_trace(p, level):
    # the trace to F_{q^2} is F_p-linear: rows[i] packs the tau-orbit sum of
    # gen^i, level / 2 images each below p, so a combination with
    # coefficients below p again fills a slot to at most level (p-1)^2
    _, vec, _, _ = _kronecker(p, level)
    rows = []
    for i in range(level):
        cur = acc = _pad((0,) * i + (1,), level)
        for _ in range(level // 2 - 1):
            cur = _frob_apply(p, level, 2, cur)
            acc = tuple((a + b) % p for a, b in zip(acc, cur))
        rows.append(int.from_bytes(vec.pack(*acc), "little"))
    return vec, tuple(rows)


def frob_q(x: FieldElem) -> FieldElem:
    """The q-power map x -> x^p on any level (the tower-wide conjugation)."""
    t = x._tables
    if t is not None:
        return t.elems[t.frob[x._enc]]
    return _new_elem(x.p, x.level, _frob_apply(x.p, x.level, 1, x.coeffs), None, None)


def conj(x: FieldElem) -> FieldElem:
    """Galois conjugation x -> x^q of F_{q^2}/F_q; defined at level 2 only."""
    if x.level != 2:
        raise InputError("conj requires a level-2 element")
    return frob_q(x)


def tau_frob(x: FieldElem) -> FieldElem:
    """The q^2-power Frobenius on an even level; identity on embedded F_{q^2}."""
    if x.level % 2:
        raise InputError("tau_frob requires an even level")
    if x._tables is not None:
        return frob_q(frob_q(x))
    return _new_elem(x.p, x.level, _frob_apply(x.p, x.level, 2, x.coeffs), None, None)


def quadratic_trace(x: FieldElem) -> FieldElem:
    """The trace x + tau x + ... + tau^(n-1) x of F_{q^{2n}} down to the
    embedded F_{q^2} (n = level / 2), applied as one cached F_p-linear table."""
    if x.level % 2:
        raise InputError("quadratic_trace requires an even level")
    coeffs = _linear_apply(x.p, _packed_trace(x.p, x.level), x.coeffs)
    if x._tables is not None:
        return x._tables.elems[_encode(x.p, coeffs)]
    return _new_elem(x.p, x.level, coeffs, None, None)


def _non_residue(p, level):
    # A quadratic non-residue, the first by integer encoding from p on.  The
    # encodings below p are the F_p elements, squares at every even level
    # (the only levels embed reaches), so scanning them would only waste one
    # exponentiation each.
    q = p**level
    for k in range(p, q):
        cand = elem_from_encoding(p, level, k)
        if encode_int(cand ** ((q - 1) // 2)) != 1:
            return cand
    raise AssertionError("no quadratic non-residue found")  # unreachable


def _field_sqrt(d: FieldElem) -> FieldElem | None:
    # Tonelli-Shanks on an even level, with a deterministic non-residue.
    p, level = d.p, d.level
    if d.is_zero:
        return d
    q = p**level
    if encode_int(d ** ((q - 1) // 2)) != 1:
        return None
    m = q - 1
    e = 0
    while m % 2 == 0:
        m //= 2
        e += 1
    c = _non_residue(p, level) ** m
    t = d**m
    r = d ** ((m + 1) // 2)
    while encode_int(t) != 1:
        i = 0
        t2 = t
        while encode_int(t2) != 1:
            if i == e:  # t has order 2^i < 2^e unless the arithmetic is broken
                raise AssertionError("Tonelli-Shanks did not converge")
            t2 = t2 * t2
            i += 1
        b = c ** (2 ** (e - i - 1))
        r = r * b
        c = b * b
        t = t * c
        e = i
    return r


@lru_cache(maxsize=None)
def _embed_root(p, target_level):
    # smallest root (integer encoding) of defining_poly(p, 2) inside the target
    b0, b1, _ = defining_poly(p, 2)
    disc = from_base(p, target_level, b1 * b1 - 4 * b0)
    s = _field_sqrt(disc)
    if s is None:
        raise InputError("quadratic does not split; target level must be even")
    inv2 = from_base(p, target_level, 2).inverse()
    nb = from_base(p, target_level, -b1)
    r1 = (nb + s) * inv2
    r2 = (nb - s) * inv2
    return min(r1, r2, key=encode_int)


def embed(x: FieldElem, target_level: int) -> FieldElem:
    """Deterministic field embedding F_{q^2} -> F_{q^{2t}}.

    The level-2 generator goes to the root of its defining polynomial with
    the smallest integer encoding.
    """
    if x.level == target_level:
        return x
    if x.level != 2:
        raise InputError("embed is defined on level-2 elements")
    if target_level % 2:
        raise InputError("target level must be even")
    p, (a, b) = x.p, x.coeffs
    coeffs = [b * c % p for c in _embed_root(p, target_level).coeffs]  # a + b r is F_p-linear
    coeffs[0] = (coeffs[0] + a) % p
    return FieldElem(p, target_level, tuple(coeffs))


def descend(x: FieldElem) -> FieldElem:
    """Inverse of embed on tau-fixed elements of an even level."""
    if x.level == 2:
        return x
    p = x.p
    r = _embed_root(p, x.level)
    j = next((i for i in range(1, x.level) if r.coeffs[i]), None)
    if j is None:
        raise AssertionError("embedded generator lies in the base field")
    b = x.coeffs[j] * pow(r.coeffs[j], -1, p) % p
    a = (x.coeffs[0] - b * r.coeffs[0]) % p
    out = elem(p, 2, [a, b])
    if embed(out, x.level) != x:
        raise InputError("element does not lie in the embedded quadratic field")
    return out


# ---------------------------------------------------------------------------
# towers


def make_tower(p: int, max_level: int) -> None:
    """Validate (p, max_level) and realize F_p < F_{p^2} < ... < F_{p^max_level}:
    the defining polynomial of every even level is computed and cached."""
    require_odd_prime(p)
    if max_level < 2 or max_level % 2:
        raise InputError("max_level must be even and >= 2")
    for lv in range(2, max_level + 1, 2):
        defining_poly(p, lv)
