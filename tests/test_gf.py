import pickle
import random
from functools import lru_cache
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afl_lab import gf
from afl_lab.dl import T_MAX
from afl_lab.errors import InputError
from afl_lab.forge import N_MAX

PRIMES = [3, 5, 7]


def elems(p, level):
    return st.builds(
        lambda cs: gf.elem(p, level, cs),
        st.lists(st.integers(0, p - 1), min_size=level, max_size=level),
    )


# ---------------------------------------------------------------------------
# the schoolbook polynomial path: the definitions of the product, the inverse
# and the Frobenius that the field's own maps are checked against


def pdivmod(a, b, p):
    r = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    inv = pow(b[-1], -1, p)
    while len(r) >= len(b) and r:
        k = len(r) - len(b)
        c = (r[-1] * inv) % p
        q[k] = c
        for j, bj in enumerate(b):
            r[k + j] = (r[k + j] - c * bj) % p
        gf._trim(r)
    return gf._trim(q), r


def pgcdext(a, b, p):
    """(g, u, v) with u a + v b = g, g monic (or [] if both are zero)."""
    r0, r1 = list(a), list(b)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = pdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, gf._psub(s0, gf._pmul(q, s1, p), p)
        t0, t1 = t1, gf._psub(t0, gf._pmul(q, t1, p), p)
    if r0:
        inv = pow(r0[-1], -1, p)
        r0 = [c * inv % p for c in r0]
        s0 = [c * inv % p for c in s0]
        t0 = [c * inv % p for c in t0]
    return r0, s0, t0


def poly_mul(p, level, a, b):
    """Schoolbook product reduced mod the defining polynomial."""
    f = list(gf.defining_poly(p, level))
    return gf._pad(gf._pmod(gf._pmul(list(a), list(b), p), f, p), level)


def poly_inverse(p, level, a):
    """Inverse by extended Euclid on the defining polynomial."""
    f = list(gf.defining_poly(p, level))
    g, u, _ = pgcdext(gf._trim(list(a)), f, p)
    assert len(g) == 1, "defining polynomial is not irreducible"
    return gf._pad(gf._pmod(u, f, p), level)


@lru_cache(maxsize=None)
def frob_images(p, level):
    """Coefficient vectors of (gen^i)^p for i < level, by powmod of x."""
    f = list(gf.defining_poly(p, level))
    xp = gf._ppowmod([0, 1], p, f, p)
    imgs = [[1]]
    cur = [1]
    for _ in range(1, level):
        cur = gf._pmod(gf._pmul(cur, xp, p), f, p)
        imgs.append(cur)
    return tuple(tuple(v) for v in imgs)


def poly_frob(p, level, a):
    """x -> x^p as the F_p-linear combination sum c_i (gen^i)^p."""
    out = [0] * level
    for c, img in zip(a, frob_images(p, level)):
        if c:
            for i, v in enumerate(img):
                out[i] = (out[i] + c * v) % p
    return tuple(out)


def test_pgcd_degree_matches_the_euclid_oracle(rng):
    # defining_poly's irreducibility test reads only the degree of _pgcd
    for p in PRIMES:
        for _ in range(40):
            common, a, b = (gf._trim([rng.randrange(p) for _ in range(rng.randrange(1, 5))]) for _ in "cab")
            a, b = gf._pmul(common, a, p), gf._pmul(common, b, p)
            g, u, v = pgcdext(a, b, p)
            assert gf._psub(gf._pmul(u, a, p), gf._pmul([-c % p for c in v], b, p), p) == g
            assert len(gf._pgcd(a, b, p)) == len(g)


# ---------------------------------------------------------------------------
# towers


def test_tower_p3_quadratic_is_lex_min():
    assert gf.defining_poly(3, 2) == (1, 0, 1)  # T^2 + 1


def test_tower_p5_quadratic_is_lex_min():
    assert gf.defining_poly(5, 2) == (2, 0, 1)  # T^2 + 2


def test_tower_rejects_even_p():
    with pytest.raises(InputError):
        gf.make_tower(2, 2)


def test_prime_bound_around_p_max():
    assert gf.P_MAX == 16381
    gf.require_odd_prime(gf.P_MAX)
    with pytest.raises(InputError, match="must be an odd prime"):
        gf.require_odd_prime(gf.P_MAX - 1)
    with pytest.raises(InputError, match=f"must be at most {gf.P_MAX}, got {gf.P_MAX + 1}"):
        gf.require_odd_prime(gf.P_MAX + 1)


class _NoTrialDivision(int):
    def __mod__(self, other):
        raise AssertionError("primality tested before the bound")


def test_prime_bound_is_tested_before_primality():
    # 2^61 - 1 is prime: trial division up to its square root never ends
    with pytest.raises(InputError, match="at most"):
        gf.require_odd_prime(_NoTrialDivision(2**61 - 1), "q")


def test_tower_rejects_odd_level():
    with pytest.raises(InputError):
        gf.make_tower(3, 3)


def test_defining_polys_are_irreducible():
    for p in PRIMES:
        for d in (2, 4, 6):
            f = gf.defining_poly(p, d)
            assert gf._is_irreducible_int(list(f), p)


def test_tower_is_deterministic():
    # a level recomputed from scratch matches the cached one make_tower realized
    gf.make_tower(3, 6)
    for d in (2, 4, 6):
        assert gf.defining_poly.__wrapped__(3, d) == gf.defining_poly(3, d)


# ---------------------------------------------------------------------------
# conjugation


def test_conj_of_i_is_minus_i():
    i = gf.gen(3, 2)
    assert gf.conj(i) == -i


def test_conj_fixes_one():
    assert gf.conj(gf.one(3, 2)) == gf.one(3, 2)


def test_conj_one_plus_i():
    i = gf.gen(3, 2)
    assert gf.conj(gf.one(3, 2) + i) == gf.one(3, 2) - i


@pytest.mark.parametrize("p", [3, 5])
def test_conj_fixed_field_is_exactly_fp(p):
    fixed = [
        x for k in range(p * p)
        if gf.conj(x := gf.elem_from_encoding(p, 2, k)) == x
    ]
    assert fixed == [gf.from_base(p, 2, c) for c in range(p)]


@given(st.sampled_from(PRIMES).flatmap(lambda p: elems(p, 2)))
def test_conj_is_an_involution(x):
    assert gf.conj(gf.conj(x)) == x


def test_conj_rejects_higher_levels():
    with pytest.raises(InputError):
        gf.conj(gf.gen(3, 4))


# ---------------------------------------------------------------------------
# tau


def test_tau_is_identity_at_level_2():
    for k in range(9):
        x = gf.elem_from_encoding(3, 2, k)
        assert gf.tau_frob(x) == x


def test_tau_on_generator_matches_ninth_power():
    gamma = gf.gen(3, 6)
    assert gf.tau_frob(gamma) == gamma**9


def test_tau_fixes_embedded_quadratic():
    for k in range(9):
        x = gf.embed(gf.elem_from_encoding(3, 2, k), 6)
        assert gf.tau_frob(x) == x


@pytest.mark.parametrize("p,level", [(3, 4), (3, 6), (5, 4)])
def test_tau_iterated_t_times_is_identity(p, level, rng):
    t = level // 2
    for _ in range(10):
        x = gf.elem(p, level, [rng.randrange(p) for _ in range(level)])
        y = x
        for _ in range(t):
            y = gf.tau_frob(y)
        assert y == x


# ---------------------------------------------------------------------------
# embeddings


def test_embed_fixes_one_and_base():
    assert gf.embed(gf.one(3, 2), 6) == gf.one(3, 6)
    x = gf.elem(3, 2, [2, 1])
    assert gf.embed(x, 2) == x


def test_embed_image_is_lex_min_root():
    # independent oracle: scan the whole field for roots of T^2 + 1
    b0, b1, _ = gf.defining_poly(3, 2)
    roots = []
    for k in range(3**6):
        x = gf.elem_from_encoding(3, 6, k)
        val = x * x + gf.from_base(3, 6, b1) * x + gf.from_base(3, 6, b0)
        if val.is_zero:
            roots.append(x)
    assert len(roots) == 2
    image = gf.embed(gf.gen(3, 2), 6)
    assert image == min(roots, key=gf.encode_int)


@pytest.mark.parametrize("p,target", [(3, 4), (3, 6), (5, 4), (7, 4)])
def test_embed_is_a_ring_hom(p, target, rng):
    for _ in range(20):
        x = gf.elem(p, 2, [rng.randrange(p), rng.randrange(p)])
        y = gf.elem(p, 2, [rng.randrange(p), rng.randrange(p)])
        assert gf.embed(x + y, target) == gf.embed(x, target) + gf.embed(y, target)
        assert gf.embed(x * y, target) == gf.embed(x, target) * gf.embed(y, target)


def test_descend_inverts_embed(rng):
    for _ in range(20):
        x = gf.elem(3, 2, [rng.randrange(3), rng.randrange(3)])
        assert gf.descend(gf.embed(x, 6)) == x


# ---------------------------------------------------------------------------
# field axioms (randomized, seeded through hypothesis)


@settings(max_examples=60)
@given(
    st.sampled_from([(3, 2), (5, 2), (3, 4), (7, 2)]).flatmap(
        lambda fl: st.tuples(elems(*fl), elems(*fl), elems(*fl))
    )
)
def test_field_axioms(triple):
    x, y, z = triple
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    if not x.is_zero:
        assert x * x.inverse() == gf.one(x.p, x.level)


@given(st.sampled_from(PRIMES).flatmap(lambda p: elems(p, 2)))
def test_pow_matches_repeated_product(x):
    acc = gf.one(x.p, x.level)
    for k in range(5):
        assert x**k == acc
        acc = acc * x


# ---------------------------------------------------------------------------
# Cayley tables of the small fields, against independent definitions


def odd_primes(limit):
    return [p for p in range(3, limit + 1, 2) if all(p % d for d in range(3, int(p**0.5) + 1, 2))]


# every field with level >= 2 that computes by table, and the prime fields
# up to 31 (level 1 is tabled by the same rule but the tower never uses it)
TABLED = [(p, lv) for lv in range(2, 8) for p in odd_primes(gf.TABLE_CAP) if p**lv <= gf.TABLE_CAP]
TABLED += [(p, 1) for p in odd_primes(31)]
LEVEL2 = [(p, lv) for p, lv in TABLED if lv == 2]


def field(p, level):
    return [gf.elem_from_encoding(p, level, k) for k in range(p**level)]


def test_tabled_fields_are_the_expected_ones():
    assert LEVEL2 == [(3, 2), (5, 2), (7, 2), (11, 2), (13, 2)]
    assert 3**6 > gf.TABLE_CAP and (3, 4) in TABLED


@pytest.mark.parametrize("p,level", LEVEL2, ids=[f"F{p * p}" for p, _ in LEVEL2])
def test_level2_mul_table_matches_closed_form(p, level):
    # (a0 + a1 T)(c0 + c1 T) = a0 c0 + (a0 c1 + a1 c0) T + a1 c1 T^2
    # with T^2 = -b1 T - b0 for the defining polynomial T^2 + b1 T + b0
    b0, b1, lead = gf.defining_poly(p, 2)
    assert lead == 1
    elems = field(p, 2)
    for x in elems:
        a0, a1 = x.coeffs
        for y in elems:
            c0, c1 = y.coeffs
            expected = ((a0 * c0 - a1 * c1 * b0) % p, (a0 * c1 + a1 * c0 - a1 * c1 * b1) % p)
            assert (x * y).coeffs == expected


@pytest.mark.parametrize("p,level", TABLED, ids=[f"F{p}^{lv}" for p, lv in TABLED])
def test_tables_match_polynomial_path(p, level):
    elems = field(p, level)
    by_coeffs = {x.coeffs: x for x in elems}
    assert [gf.encode_int(x) for x in elems] == list(range(p**level))
    for x in elems:
        assert x.is_zero == (not any(x.coeffs))
        assert -x is by_coeffs[tuple(-a % p for a in x.coeffs)]
        assert gf.frob_q(x) is by_coeffs[poly_frob(p, level, x.coeffs)]
        if level % 2 == 0:
            assert gf.tau_frob(x) is by_coeffs[poly_frob(p, level, poly_frob(p, level, x.coeffs))]
        if x.is_zero:
            with pytest.raises(ZeroDivisionError):
                x.inverse()
        else:
            assert x.inverse() is by_coeffs[poly_inverse(p, level, x.coeffs)]
        for y in elems:
            assert x + y is by_coeffs[tuple((a + b) % p for a, b in zip(x.coeffs, y.coeffs))]
            assert x - y is by_coeffs[tuple((a - b) % p for a, b in zip(x.coeffs, y.coeffs))]
            assert x * y is by_coeffs[poly_mul(p, level, x.coeffs, y.coeffs)]


def leaves(table):
    for v in table:
        if isinstance(v, list):
            yield from leaves(v)
        else:
            yield v


@pytest.mark.parametrize("p,level", TABLED + [(251, 1)], ids=[f"F{p}^{lv}" for p, lv in TABLED + [(251, 1)]])
def test_elems_is_the_only_table_of_elements(p, level):
    # one table kind: every arithmetic table holds encodings (None only at
    # inv[0]), so the interned elements are stored once, in elems
    t = gf._tables(p, level)
    t.add  # the first arithmetic builds every table
    tables = {name: getattr(t, name) for name in gf._Tables.__slots__ if name not in ("p", "level")}
    elems = tables.pop("elems")
    assert [x.__class__ for x in elems] == [gf.FieldElem] * p**level
    assert {"add", "sub", "mul", "inv", "frob"} <= set(tables)
    assert tables["inv"][0] is None
    for name, table in tables.items():
        values = list(leaves(table[1:] if name == "inv" else table))
        assert all(type(v) is int and 0 <= v < p**level for v in values), name


def test_table_build_ends_on_a_broken_product(monkeypatch):
    # a product that returns its left factor never brings the powers back to 1
    monkeypatch.setattr(gf, "_kronecker_mul", lambda p, level, a, b: a)
    with pytest.raises(AssertionError, match="no element of order q - 1"):
        gf._Tables(3, 2)._build()


@pytest.mark.parametrize("p", [3, 5])
def test_tables_are_associative_and_distributive(p):
    elems = field(p, 2)
    for x in elems:
        for y in elems:
            xy, x_plus_y = x * y, x + y
            for z in elems:
                assert xy * z is x * (y * z)
                assert x_plus_y + z is x + (y + z)
                assert x * (y + z) is xy + x * z


def test_interned_element_behaves_like_a_value():
    x = gf.elem(3, 2, [1, 2])
    assert x is gf.elem_from_encoding(3, 2, 7) is gf.FieldElem(3, 2, (1, 2)) is gf.elem(3, 2, [4, -1])
    assert x == gf.elem_from_encoding(3, 2, 7) and x != gf.elem(3, 2, [2, 1]) and x != gf.elem(5, 2, [1, 2])
    assert hash(x) == hash((3, 2, (1, 2)))
    assert repr(x) == "FieldElem(p=3, level=2, coeffs=(1, 2))"
    assert pickle.loads(pickle.dumps(x)) is x
    with pytest.raises(AttributeError):
        x.coeffs = (0, 0)
    with pytest.raises(AttributeError):
        x.extra = 1
    with pytest.raises(AttributeError):
        del x.p
    assert x.coeffs == (1, 2)


def test_elements_above_the_cap_are_plain_values():
    x, y = gf.elem(3, 6, [1, 2]), gf.elem(3, 6, [1, 2])
    assert x is not y and x == y and hash(x) == hash(y) == hash((3, 6, (1, 2, 0, 0, 0, 0)))
    assert repr(x) == "FieldElem(p=3, level=6, coeffs=(1, 2, 0, 0, 0, 0))"
    assert gf.encode_int(x) == 1 + 2 * 3
    with pytest.raises(AttributeError):
        x.p = 5


@pytest.mark.parametrize("p,level", [(3, 2), (3, 6)])
def test_constructor_validates(p, level):
    with pytest.raises(InputError):
        gf.FieldElem(p, level, (0,) * (level + 1))
    with pytest.raises(InputError):
        gf.FieldElem(p, level, (p,) + (0,) * (level - 1))
    with pytest.raises(InputError):
        gf.FieldElem(p, level, (-1,) + (0,) * (level - 1))
    with pytest.raises(InputError):
        gf.elem(p, 2, [1]) + gf.elem(5, 2, [1])


def test_tables_are_built_on_first_arithmetic_only():
    # a fresh interpreter: nothing at import or make_tower, the elements of
    # F_9 on the first construction, its tables on the first operation
    code = """
from afl_lab import gf
gf.make_tower(3, 18)
print(gf._tables.cache_info().currsize)
x = gf.gen(3, 2)
t = gf._tables(3, 2)
def built():
    out = []
    for name in ("add", "sub", "mul", "inv", "frob"):
        try:
            object.__getattribute__(t, name)
            out.append(name)
        except AttributeError:
            pass
    return " ".join(out) or "-"
print(gf._tables.cache_info().currsize, len(t.elems), built())
x * x
print(built())
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:3] == ["0", "1 9 -", "add sub mul inv frob"]


# ---------------------------------------------------------------------------
# Kronecker products above the cap, against the schoolbook poly_mul


# every even level from 6 up to the largest the eigenline counter reaches in
# the tests and the benchmark: 2t for q = 3, t <= 11 and q = 5, t <= 7
KRONECKER = [(3, lv) for lv in range(6, 23, 2)] + [(5, lv) for lv in range(6, 15, 2)]


@pytest.mark.parametrize("p,level", KRONECKER, ids=[f"F{p}^{lv}" for p, lv in KRONECKER])
def test_kronecker_product_matches_schoolbook(p, level):
    rng = random.Random(f"kronecker:{p}:{level}")
    basis = [tuple(int(i == j) for j in range(level)) for i in range(level)]
    top = (p - 1,) * level  # the largest value every slot can reach
    pairs = [(a, b) for a in basis for b in basis] + [(top, top), (top, basis[-1])]
    pairs += [tuple(tuple(rng.randrange(p) for _ in range(level)) for _ in "ab") for _ in range(40)]
    for a, b in pairs:
        assert gf._kronecker_mul(p, level, a, b) == poly_mul(p, level, a, b)
        assert (gf.FieldElem(p, level, a) * gf.FieldElem(p, level, b)).coeffs == poly_mul(p, level, a, b)


@pytest.mark.parametrize("p,level", [(3, 6), (3, 22), (5, 14), (31, 2), (16381, 6)])
def test_kronecker_slots_hold_the_worst_case(p, level):
    # a slot holds a product coefficient (<= level (p-1)^2) plus the folded
    # reduction terms (<= (level - 1) (p-1)^2), with no carry into the next
    cut, vec, high, rows = gf._kronecker(p, level)
    width = cut // level
    assert vec.size * 8 == cut and high.size * 8 == width * (level - 1) and len(rows) == level - 1
    assert 2**width > level * (p - 1) ** 2 + (level - 1) * (p - 1) ** 2


# ---------------------------------------------------------------------------
# packed Frobenius maps above the cap, against poly_frob


def poly_tau(p, level, a):
    return poly_frob(p, level, poly_frob(p, level, a))


# the smallest even level above the cap for p = 3, 5, 7, 17
SMALLEST_ABOVE_CAP = [(3, 6), (5, 4), (7, 4), (17, 2)]


@pytest.mark.parametrize("p,level", SMALLEST_ABOVE_CAP, ids=[f"F{p}^{lv}" for p, lv in SMALLEST_ABOVE_CAP])
def test_packed_frobenius_matches_poly_frob_exhaustively(p, level):
    assert p**level > gf.TABLE_CAP >= p ** (level - 2)
    for k in range(p**level):
        x = gf.elem_from_encoding(p, level, k)
        assert gf.frob_q(x).coeffs == poly_frob(p, level, x.coeffs)
        assert gf.tau_frob(x).coeffs == poly_tau(p, level, x.coeffs)


@pytest.mark.parametrize("p,level", KRONECKER, ids=[f"F{p}^{lv}" for p, lv in KRONECKER])
def test_packed_frobenius_matches_poly_frob(p, level):
    rng = random.Random(f"frobenius:{p}:{level}")
    vectors = [(p - 1,) * level] + [tuple(rng.randrange(p) for _ in range(level)) for _ in range(60)]
    for a in vectors:
        x = gf.FieldElem(p, level, a)
        assert gf.frob_q(x).coeffs == poly_frob(p, level, a)
        assert gf.tau_frob(x).coeffs == poly_tau(p, level, a)
        assert gf.tau_frob(x) == x ** (p * p)


@pytest.mark.parametrize("p,level", [(3, 6), (3, 22), (5, 14), (17, 2), (16381, 6)])
def test_packed_frobenius_rows_are_the_images_of_the_basis(p, level):
    # a slot of a combination sums level products below p^2, inside the
    # width _kronecker guarantees; row i unpacks to (gen^i)^(p^power)
    cut, vec, _, _ = gf._kronecker(p, level)
    assert 2 ** (cut // level) > level * (p - 1) ** 2
    for power, image in ((1, poly_frob), (2, poly_tau)):
        packed_vec, rows = gf._packed_frob(p, level, power)
        assert packed_vec is vec and len(rows) == level
        for i, row in enumerate(rows):
            basis = tuple(int(i == j) for j in range(level))
            assert vec.unpack(row.to_bytes(vec.size, "little")) == image(p, level, basis)


# ---------------------------------------------------------------------------
# the norm inverse above the cap, against extended Euclid

NORM_EXHAUSTIVE = SMALLEST_ABOVE_CAP + [(257, 1)]
NORM_RANDOM = KRONECKER + [(16381, 2), (16381, 6)]


@pytest.mark.parametrize("p,level", NORM_EXHAUSTIVE, ids=[f"F{p}^{lv}" for p, lv in NORM_EXHAUSTIVE])
def test_norm_inverse_matches_euclid_exhaustively(p, level):
    assert p**level > gf.TABLE_CAP
    for k in range(1, p**level):
        x = gf.elem_from_encoding(p, level, k)
        assert x.inverse().coeffs == poly_inverse(p, level, x.coeffs)


@pytest.mark.parametrize("p,level", NORM_RANDOM, ids=[f"F{p}^{lv}" for p, lv in NORM_RANDOM])
def test_norm_inverse_matches_euclid(p, level):
    rng = random.Random(f"inverse:{p}:{level}")
    vectors = [(p - 1,) * level] + [tuple(int(i == j) for j in range(level)) for i in range(level)]
    vectors += [tuple(rng.randrange(p) for _ in range(level)) for _ in range(40)]
    one = gf.one(p, level)
    for a in vectors:
        x = gf.FieldElem(p, level, a)
        assert x.inverse().coeffs == poly_inverse(p, level, a)
        assert x * x.inverse() == one
    with pytest.raises(ZeroDivisionError):
        gf.zero(p, level).inverse()


def test_norm_inverse_rejects_a_norm_outside_fp(monkeypatch):
    # with the Frobenius broken to the identity, a b = gen^6 is no scalar
    monkeypatch.setattr(gf, "_frob_apply", lambda p, level, power, a: a)
    with pytest.raises(AssertionError, match="not a nonzero scalar"):
        gf.gen(3, 6).inverse()


# ---------------------------------------------------------------------------
# packed sums above the cap, against the per-term sums they replace


def dot_by_terms(xs, ys):
    """The per-term dot product: each product reduced and added on its own,
    terms with a zero x skipped."""
    acc = gf.zero(xs[0].p, xs[0].level)
    for a, b in zip(xs, ys):
        if not a.is_zero:
            acc = acc + a * b
    return acc


def random_elem(p, level, rng):
    return gf.elem(p, level, [rng.randrange(p) for _ in range(level)])


ABOVE_CAP = SMALLEST_ABOVE_CAP + [(16381, 2), (16381, 6)]


@pytest.mark.parametrize("p,level", SMALLEST_ABOVE_CAP, ids=[f"F{p}^{lv}" for p, lv in SMALLEST_ABOVE_CAP])
def test_packed_dot_matches_per_term_sum_on_every_element(p, level):
    rng = random.Random(f"dot-every:{p}:{level}")
    a, b = random_elem(p, level, rng), random_elem(p, level, rng)
    top = gf.FieldElem(p, level, (p - 1,) * level)
    z = gf.zero(p, level)
    for k in range(p**level):
        x = gf.elem_from_encoding(p, level, k)
        xs, ys = (x, a, z, top, x), (b, x, a, top, x)
        assert gf.dot(xs, ys) == dot_by_terms(xs, ys)


@pytest.mark.parametrize("p,level", ABOVE_CAP + KRONECKER, ids=[f"F{p}^{lv}" for p, lv in ABOVE_CAP + KRONECKER])
def test_packed_dot_matches_per_term_sum(p, level):
    rng = random.Random(f"dot:{p}:{level}")
    for n in (1, 2, 5, 9, 27, 40):
        xs = [random_elem(p, level, rng) if rng.random() < 0.7 else gf.zero(p, level) for _ in range(n)]
        ys = [random_elem(p, level, rng) for _ in range(n)]
        result = gf.dot(xs, ys)
        assert result == dot_by_terms(xs, ys) and result._tables is None
    assert gf.dot([gf.zero(p, level)] * 3, ys[:3]) == gf.zero(p, level)


def test_packed_dot_rejects_vectors_over_different_fields():
    with pytest.raises(InputError):
        gf.dot([gf.gen(3, 6)], [gf.gen(5, 6)])


def test_dot_on_a_tabled_field_keeps_the_lookups():
    x = gf.gen(3, 2)
    assert gf.dot([x, gf.zero(3, 2)], [x, x]) is x * x


@pytest.mark.parametrize("p,level", ABOVE_CAP, ids=[f"F{p}^{lv}" for p, lv in ABOVE_CAP])
def test_fold_blocks_reduces_every_block_like_the_schoolbook_product(p, level):
    # block k of the packed product of two element lists is sum_{i+j=k} a_i b_j
    rng = random.Random(f"blocks:{p}:{level}")
    for m1, m2 in ((1, 1), (1, 4), (3, 3), (6, 2)):
        a = [random_elem(p, level, rng) for _ in range(m1)]
        b = [random_elem(p, level, rng) for _ in range(m2)]
        width = gf.slot_width(p, level, min(m1, m2))
        prod = gf.pack_blocks(p, level, width, a) * gf.pack_blocks(p, level, width, b)
        expected = []
        for k in range(m1 + m2 - 1):
            terms = [i for i in range(m1) if 0 <= k - i < m2]
            expected.append(dot_by_terms([a[i] for i in terms], [b[k - i] for i in terms]))
        assert gf.fold_blocks(p, level, width, m1 + m2 - 1, prod) == expected


@pytest.mark.parametrize("level,terms", [(2, 2 * N_MAX), (2 * T_MAX, 2 * T_MAX)], ids=["level2", "level2T_MAX"])
def test_packed_sums_hold_the_worst_case_at_p_max(level, terms):
    # the longest sums: at level 2, a residue product modulo a charpoly of
    # degree n <= N_MAX (2n terms, Modulus); at level 2t <= 2 T_MAX, the same
    # modulo a degree-t charpoly and the trace over 2t Frobenius powers.
    # Every slot of a sum of `terms` products of (p-1, ..., p-1) reaches its
    # bound, so a carry between slots would change the result.
    p = gf.P_MAX
    width = gf.slot_width(p, level, terms)
    assert width <= 8 and 256**width > (terms * level + level - 1) * (p - 1) ** 2
    top = gf.FieldElem(p, level, (p - 1,) * level)
    expected = gf.FieldElem(p, level, tuple(c * terms % p for c in poly_mul(p, level, top.coeffs, top.coeffs)))
    assert gf.dot([top] * terms, [top] * terms) == expected


def test_slot_width_grows_with_the_number_of_terms():
    assert [gf.slot_width(3, 18, k) for k in (1, 3, 909, 910)] == [1, 2, 2, 4]
    assert [gf.slot_width(16381, 2, k) for k in (1, 7, 8)] == [4, 4, 8]
    with pytest.raises(InputError, match="overflows"):
        gf.slot_width(16381, 54, 10**10)


# ---------------------------------------------------------------------------
# the packed trace to F_{q^2} and the linear embedding, against their definitions


def trace_by_orbit_sum(x):
    """x + tau x + ... + tau^(n-1) x, n = level / 2."""
    acc = cur = x
    for _ in range(x.level // 2 - 1):
        cur = gf.tau_frob(cur)
        acc = acc + cur
    return acc


TRACE_EXHAUSTIVE = [(3, 4), (3, 6), (5, 4), (7, 4), (17, 2)]


@pytest.mark.parametrize("p,level", TRACE_EXHAUSTIVE, ids=[f"F{p}^{lv}" for p, lv in TRACE_EXHAUSTIVE])
def test_quadratic_trace_matches_the_orbit_sum_on_every_element(p, level):
    for k in range(p**level):
        x = gf.elem_from_encoding(p, level, k)
        t = gf.quadratic_trace(x)
        assert t == trace_by_orbit_sum(x) and t == gf.tau_frob(t)
        assert (t._tables is None) == (p**level > gf.TABLE_CAP)


@pytest.mark.parametrize("p,level", [(3, 10), (3, 18), (5, 14), (16381, 6), (16381, 10)])
def test_quadratic_trace_matches_the_orbit_sum(p, level):
    rng = random.Random(f"trace:{p}:{level}")
    for x in [gf.FieldElem(p, level, (p - 1,) * level)] + [random_elem(p, level, rng) for _ in range(30)]:
        assert gf.quadratic_trace(x) == trace_by_orbit_sum(x)
    with pytest.raises(InputError):
        gf.quadratic_trace(gf.gen(3, 5))


def embed_by_definition(x, target):
    r = gf._embed_root(x.p, target)
    return gf.from_base(x.p, target, x.coeffs[0]) + gf.from_base(x.p, target, x.coeffs[1]) * r


@pytest.mark.parametrize("p", [3, 5, 7, 17])
@pytest.mark.parametrize("target", [4, 6, 10])
def test_embed_equals_a_plus_b_r_on_every_element(p, target):
    for k in range(p * p):
        x = gf.elem_from_encoding(p, 2, k)
        assert gf.embed(x, target) == embed_by_definition(x, target)


@pytest.mark.parametrize("p,level", [(3, 6), (3, 18), (5, 6), (17, 2)])
def test_results_above_the_cap_equal_validated_elements(p, level):
    # __mul__, inverse, frob_q, tau_frob, +, - and negation skip the constructor's
    # checks; each result must still be what the validating constructor makes
    rng = random.Random(f"validated:{p}:{level}")
    for _ in range(20):
        x, y = (gf.elem(p, level, [rng.randrange(p) for _ in range(level)]) for _ in "xy")
        results = [x * y, gf.frob_q(x), gf.tau_frob(x), x + y, x - y, -x]
        if not x.is_zero:
            results.append(x.inverse())
        for r in results:
            assert r._tables is None and r == gf.FieldElem(p, level, r.coeffs)
            assert all(type(c) is int for c in r.coeffs)


# ---------------------------------------------------------------------------
# the quadratic non-residue behind embed


def first_non_residue(p, level):
    """The scan from encoding 1: the definition _non_residue shortcuts."""
    q = p**level
    for k in range(1, q):
        cand = gf.elem_from_encoding(p, level, k)
        if gf.encode_int(cand ** ((q - 1) // 2)) != 1:
            return cand
    raise AssertionError("no non-residue")


@pytest.mark.parametrize("p", [3, 5, 7, 11])
@pytest.mark.parametrize("level", [2, 4, 6])
def test_non_residue_scan_skips_only_squares(p, level):
    # the levels embed reaches are even; the encodings below p are F_p
    # elements and squares there, so starting at p finds the same element
    assert gf._non_residue(p, level) == first_non_residue(p, level)


# ---------------------------------------------------------------------------
# the binomials defining_poly skips


def unskipped_defining_poly(p, degree):
    """The scan over every encoding from 0: the definition defining_poly shortcuts."""
    for enc in range(p**degree):
        f = list(gf._decode(p, degree, enc)) + [1]
        if gf._is_irreducible_int(f, p):
            return tuple(f)
    raise AssertionError("no irreducible polynomial")


def binomial_may_be_irreducible(p, degree):
    # Lidl-Niederreiter, Finite Fields, Thm 3.75, necessary half
    primes = [r for r in odd_primes(degree) + [2] if degree % r == 0]
    return all((p - 1) % r == 0 for r in primes) and (degree % 4 or (p - 1) % 4 == 0)


@pytest.mark.parametrize("p", odd_primes(59))
def test_defining_poly_matches_unskipped_scan(p):
    for degree in range(1, 9):
        assert gf.defining_poly.__wrapped__(p, degree) == unskipped_defining_poly(p, degree)


@pytest.mark.parametrize("p", odd_primes(59))
def test_no_binomial_is_irreducible_where_the_scan_skips_them(p):
    skipped = [d for d in range(2, 23) if not binomial_may_be_irreducible(p, d)]
    assert skipped
    for degree in skipped:
        assert not any(gf._is_irreducible_int([c] + [0] * (degree - 1) + [1], p) for c in range(p))


def test_binomial_skip_near_p_max():
    # 16318 = 2 * 8159: degrees 4 and 6 skip all 16319 binomials
    assert not binomial_may_be_irreducible(16319, 4) and not binomial_may_be_irreducible(16319, 6)
    for degree in (4, 6):
        f = gf.defining_poly(16319, degree)
        assert gf._encode(16319, f[:-1]) >= 16319 and gf._is_irreducible_int(list(f), 16319)
