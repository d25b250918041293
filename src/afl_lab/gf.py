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
to F_{q^2} is one such table too (packed_map builds every such table, and
linear_apply applies it).  The inverse is Itoh-Tsujii's (Inform. Comput.
78, 1988): a^-1 = a^(p + ... + p^(L-1)) / N(a), with the exponent reached
by an addition chain over the bits of L - 1, about 2 log2 L Frobenius maps
and products.  A matrix over F_{q^2} acts on a vector of an even level
without embedding its entries (embedded_apply): a + b gen acts as a + b r,
r the image of gen.

Small fields compute by table (Lidl-Niederreiter, Finite Fields, ch. 9):
when p**level <= TABLE_CAP (F_9 up to F_169 at level 2, F_27, F_81, F_125,
F_243, and F_p for p <= 251) every value is one interned FieldElem indexed
by its encode_int.  One set of int tables on encodings, add, sub, mul, inv
and frob, is built from the Kronecker powers of a primitive element
together with those elements, on the first construction of an element of
that field, never at import or in make_tower.  Elements read them and
return the interned result; index_rows hands a kernel (matrix products,
echelon forms, characteristic polynomials, polynomial products, division
and powers) the same tables with its operands as int lists, so its inner
loop runs on ints and wraps its result once at exit.  Larger levels (the
eigenline fields, and F_{q^2} for q >= 17) apply the two maps directly, on
the same FieldElem class.

The F_p[x] helpers on little-endian int lists serve only the definition of
the fields: the irreducibility test behind defining_poly and the reduction
rows of the packed products.  They are not Poly, which is built on the
fields they define.

Three idioms are defined here once for every module: power, by squaring
for any product; tau_orbit, the q^2-Frobenius orbit bounded by level / 2
steps; and random_elem, the seeded draw that fixes every report.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import chain
from math import isqrt
from struct import Struct

from .errors import CrossCheckError, InputError, Record


def power(base, e: int, mul, one):
    """base^e by square-and-multiply for the product mul with identity one,
    which is never multiplied; the squarings stop at the top bit.
    InputError when e < 0, where the loop would never end."""
    if e < 0:
        raise InputError("negative exponent")
    result = None
    while e:
        if e & 1:
            result = base if result is None else mul(result, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return one if result is None else result


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
    return power(_pmod(a, m, p), e, lambda x, y: _pmod(_pmul(x, y, p), m, p), [1])


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
    raise CrossCheckError("no irreducible polynomial found")  # unreachable


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
    reduction per dot product instead of one per term.  Empty vectors,
    vectors of unequal length, or any entry from another field raise
    InputError."""
    if len(xs) != len(ys):
        raise InputError("dot product of vectors of unequal length")
    if not xs:
        raise InputError("dot product of empty vectors")
    enc = index_rows(xs, ys)
    if enc is not None:
        t, (a, b) = enc
        add, mul = t.add, t.mul
        acc = 0
        for x, y in zip(a, b):
            if x:
                acc = add[acc][mul[x][y]]
        return t.elems[acc]
    p, level = xs[0].p, xs[0].level
    check_field(p, level, xs, ys)
    width = slot_width(p, level, len(xs))
    vec = _blocks(p, level, width, 1)[0]
    acc = 0
    for a, b in zip(xs, ys):
        if any(a.coeffs):
            acc += int.from_bytes(vec.pack(*a.coeffs), "little") * int.from_bytes(vec.pack(*b.coeffs), "little")
    return fold_blocks(p, level, width, 1, acc)[0]


def _norm_inverse(p, level, a):
    # Itoh-Tsujii: b = a^(p + ... + p^(level-1)) is the product of the other
    # conjugates of a, so a b = N(a) lies in F_p^* and a^-1 = b / N(a).  With
    # e_k = a^(1 + p + ... + p^(k-1)), e_(j+k) = e_j frob^j(e_k): over the
    # bits of level - 1, e_2k = e_k frob^k(e_k) and e_(2k+1) = a frob(e_2k),
    # and b = frob(e_(level-1))
    b = _pad((1,), level)
    if level > 1:
        e, k = a, 1
        for bit in bin(level - 1)[3:]:
            e = _kronecker_mul(p, level, e, _frob_apply(p, level, k, e))
            k *= 2
            if bit == "1":
                e = _kronecker_mul(p, level, a, _frob_apply(p, level, 1, e))
                k += 1
        b = _frob_apply(p, level, 1, e)
    norm = _kronecker_mul(p, level, a, b)
    if not norm[0] or any(norm[1:]):
        raise CrossCheckError("norm of a nonzero element is not a nonzero scalar")
    inv = pow(norm[0], -1, p)
    return tuple(c * inv % p for c in b)


class FieldElem(Record):
    """Element of F_{p^level} in the power basis of defining_poly(p, level).

    A Record on (p, level, coeffs), built by __new__ alone.  When
    p**level <= TABLE_CAP each value has exactly one instance, whose slots
    _enc and _tables hold its encode_int and its field's _Tables, and an
    operation returns the instance of the encoding an int table gives.
    Larger fields compute on the coefficient tuples and wrap the residues
    they return with _new_elem; only __new__ validates, for inputs from
    outside.
    """

    _fields = ("p", "level", "coeffs")
    __slots__ = (*_fields, "_enc", "_tables")

    def __new__(cls, p: int, level: int, coeffs: tuple[int, ...]):
        if level < 1:
            raise InputError(f"level must be at least 1, got {level}")
        if len(coeffs) != level:
            raise InputError("coefficient vector length must equal the level")
        if any(c < 0 or c >= p for c in coeffs):
            raise InputError("coefficients must be residues in [0, p)")
        if p**level <= TABLE_CAP:
            return _tables(p, level).elems[_encode(p, coeffs)]
        return _new_elem(p, level, coeffs, None, None)

    def __init__(self, *args, **kwargs):
        # __new__ has built the element; Record.__init__ would rewrite the
        # slots of an interned one, which every holder of it shares
        pass

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

    def __pow__(self, e: int) -> "FieldElem":
        # operator.mul dispatches through the class, so a patched __mul__ sees every product
        return power(self, e, operator.mul, one(self.p, self.level))


# the slot descriptors write past the frozen __setattr__
_set_p, _set_level, _set_coeffs = FieldElem._setters
_set_enc, _set_tables = FieldElem._enc.__set__, FieldElem._tables.__set__


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
    elements and the tables are built together, on the first construction
    of an element of the field; import and make_tower build neither.
    """

    __slots__ = ("elems", "add", "sub", "mul", "inv", "frob")

    def __init__(self, p, level):
        q = p**level
        vecs = [_decode(p, level, k) for k in range(q)]
        self.elems = [_new_elem(p, level, v, k, self) for k, v in enumerate(vecs)]
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
            raise CrossCheckError("no element of order q - 1: the product is broken")
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


def check_field(p: int, level: int, *vectors) -> None:
    """InputError unless every entry of the vectors lies in F_{p^level}; for
    rows from outside and the packed routes, which read coeffs unchecked."""
    for v in vectors:
        for x in v:
            if x.p != p or x.level != level:
                raise InputError("elements live in different fields")


def elem(p: int, level: int, coeffs) -> FieldElem:
    """Build an element from at most `level` integers, little-endian,
    reduced mod p and padded with zeros; InputError on more."""
    coeffs = [int(c) % p for c in coeffs]
    if len(coeffs) > level >= 1:
        raise InputError(f"an element of level {level} has at most {level} coefficients, got {len(coeffs)}")
    return FieldElem(p, level, _pad(coeffs, level))


def random_elem(p: int, level: int, rng) -> FieldElem:
    """The seeded draw of an element of F_{p^level}: `level` rng.randrange(p)
    draws, low coefficient first.  Every seeded report depends on this order."""
    return elem(p, level, [rng.randrange(p) for _ in range(level)])


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


def packed_map(p: int, level: int, images) -> tuple:
    """The table of an F_p-linear map of F_p^level (the coefficient vectors
    of F_{p^level}) given by the images of the basis vectors, images[i]
    holding `level` residues below p: the images packed in the slots of
    one product, so a combination with coefficients below p fills a slot
    to at most level (p-1)^2.  linear_apply applies it.  InputError unless
    there are `level` images of `level` residues each."""
    images = [tuple(img) for img in images]
    if len(images) != level or any(len(img) != level or not all(0 <= c < p for c in img) for img in images):
        raise InputError(f"a packed map of F_{p}^{level} needs {level} images of {level} residues each")
    _, vec, _, _ = _kronecker(p, level)
    return vec, tuple(int.from_bytes(vec.pack(*img), "little") for img in images)


def linear_apply(p: int, table, a) -> tuple:
    """The map of a packed_map table at the coefficient vector a: one
    multiply-accumulate per nonzero coefficient of a, then one unpack."""
    vec, rows = table
    acc = 0
    for c, row in zip(a, rows):
        if c:
            acc += c * row
    return tuple(c % p for c in vec.unpack(acc.to_bytes(vec.size, "little")))


@lru_cache(maxsize=None)
def _packed_frob(p, level, power):
    # x -> x^(p^power) sends gen^i to y^i, y = gen^(p^power), which the
    # p-power table reaches from gen^p in power - 1 applications
    y = (gen(p, level) ** p).coeffs
    for _ in range(1, power):
        y = _frob_apply(p, level, 1, y)
    images, img = [], _pad((1,), level)
    for _ in range(level):
        images.append(img)
        img = _kronecker_mul(p, level, img, y)
    return packed_map(p, level, images)


def _frob_apply(p, level, power, a):
    return linear_apply(p, _packed_frob(p, level, power), a)


@lru_cache(maxsize=None)
def _packed_trace(p, level):
    # the trace to F_{q^2} is F_p-linear: the image of gen^i is its tau-orbit
    # sum, level / 2 images, again with residues below p
    images = []
    for i in range(level):
        cur = acc = _pad((0,) * i + (1,), level)
        for _ in range(level // 2 - 1):
            cur = _frob_apply(p, level, 2, cur)
            acc = tuple((a + b) % p for a, b in zip(acc, cur))
        images.append(acc)
    return packed_map(p, level, images)


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


def tau_orbit(z: FieldElem) -> list[FieldElem]:
    """z, tau z, tau^2 z, ... up to the first return to z.  tau has order
    d on F_{q^{2d}} (level 2d), so an orbit still open after d steps means
    broken arithmetic: CrossCheckError."""
    d = z.level // 2
    orbit = [z]
    cur = tau_frob(z)
    while cur != z:
        if len(orbit) == d:
            raise CrossCheckError(f"tau orbit of a level-{z.level} element is not closed after {d} steps")
        orbit.append(cur)
        cur = tau_frob(cur)
    return orbit


def quadratic_trace(x: FieldElem) -> FieldElem:
    """The trace x + tau x + ... + tau^(n-1) x of F_{q^{2n}} down to the
    embedded F_{q^2} (n = level / 2), applied as one cached F_p-linear table."""
    if x.level % 2:
        raise InputError("quadratic_trace requires an even level")
    coeffs = linear_apply(x.p, _packed_trace(x.p, x.level), x.coeffs)
    if x._tables is not None:
        return x._tables.elems[_encode(x.p, coeffs)]
    return _new_elem(x.p, x.level, coeffs, None, None)


@lru_cache(maxsize=None)
def _embed_root(p, target_level):
    # the smallest root (integer encoding) of T^2 + b1 T + b0 = defining_poly(p, 2)
    # inside the even target level: (-b1 +- s) / 2 with s^2 = b1^2 - 4 b0, a non-square
    # of F_p.  For w in the embedded F_{q^2} outside F_p, d = w - w^q has
    # d^q = -d, so d^2 is a non-square of F_p and s = c d for a c in F_p.
    # The traces of gen^i (i < level) span F_{q^2}, so one of them is such a w.
    for i in range(1, target_level):
        w = quadratic_trace(elem(p, target_level, (0,) * i + (1,)))
        d = w - frob_q(w)
        if d:
            break
    else:
        raise CrossCheckError("every trace of a power of gen lies in F_p: the trace is broken")
    d2 = (d * d).coeffs
    if any(d2[1:]):
        raise CrossCheckError("(w - w^q)^2 is not in F_p: the q-power map is broken")
    b0, b1, _ = defining_poly(p, 2)
    disc = (b1 * b1 - 4 * b0) % p
    c = next((c for c in range(1, p) if c * c * d2[0] % p == disc), None)
    if c is None:
        raise CrossCheckError("(w - w^q)^2 is a square of F_p: the q-power map is broken")
    half = (p + 1) // 2
    roots = []
    for k in (c, -c):
        coeffs = [k * a * half % p for a in d.coeffs]
        coeffs[0] = (coeffs[0] - b1 * half) % p
        roots.append(FieldElem(p, target_level, tuple(coeffs)))
    return min(roots, key=encode_int)


def embed(x: FieldElem, target_level: int) -> FieldElem:
    """Deterministic field embedding F_{q^2} -> F_{q^{2t}}.

    The level-2 generator goes to the root of its defining polynomial with
    the smallest integer encoding.
    """
    if x.level == target_level:
        return x
    if x.level != 2:
        raise InputError("embed is defined on level-2 elements")
    if target_level < 2:
        raise InputError(f"target level must be at least 2, got {target_level}")
    if target_level % 2:
        raise InputError("target level must be even")
    p, (a, b) = x.p, x.coeffs
    coeffs = [b * c % p for c in _embed_root(p, target_level).coeffs]  # a + b r is F_p-linear
    coeffs[0] = (coeffs[0] + a) % p
    return FieldElem(p, target_level, tuple(coeffs))


def embedded_apply(rows, vec) -> tuple:
    """M v for the matrix M over F_{q^2} with the given rows, acting through
    embed on the vector v of an even level, without embedding M.

    An entry a + b gen acts as a + b r, r = embed(gen), so row i of M v is
    sum a_j v_j + r sum b_j v_j: two combinations of the packed v_j (packed
    once per call) with the small ints a_j and b_j, one integer product by
    the packed r, and every row folded once, all rows by one fold_blocks.
    The slots are sized for len(v) p terms: a slot of r sum b_j v_j holds
    at most level len(v) (p-1)^3.  At level 2 embed is the identity, and
    each row is one dot.  InputError on an empty v, a row whose
    length is not len(v), a row entry not at level 2, an odd level, or
    entries over more than one prime or level."""
    if not vec:
        raise InputError("embedded_apply of an empty vector")
    p, level, n = vec[0].p, vec[0].level, len(vec)
    if level % 2:
        raise InputError("embedded_apply needs a vector of an even level")
    if level == 2:  # embed is the identity: plain dots keep the tables of F_9 to F_169
        return tuple(dot(row, vec) for row in rows)
    width = slot_width(p, level, n * p)
    block = _blocks(p, level, width, 1)[0]
    check_field(p, level, vec)
    packed = [int.from_bytes(block.pack(*x.coeffs), "little") for x in vec]
    r = int.from_bytes(block.pack(*_embed_root(p, level).coeffs), "little")
    bits, acc = 8 * block.size, 0
    for i, row in enumerate(rows):
        if len(row) != n:
            raise InputError("embedded_apply of a row and a vector of unequal length")
        low = high = 0
        for x, v in zip(row, packed):
            if x.level != 2 or x.p != p:
                raise InputError("embedded_apply needs level-2 entries over the prime of the vector")
            a, b = x.coeffs
            if a:
                low += a * v
            if b:
                high += b * v
        acc += (low + high * r) << (i * bits)
    return tuple(fold_blocks(p, level, width, len(rows), acc))


def descend(x: FieldElem) -> FieldElem:
    """Inverse of embed on tau-fixed elements of an even level."""
    if x.level == 2:
        return x
    if x.level % 2:
        raise InputError("descend requires an even level")
    p = x.p
    r = _embed_root(p, x.level)
    j = next((i for i in range(1, x.level) if r.coeffs[i]), None)
    if j is None:
        raise CrossCheckError("embedded generator lies in the base field")
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
