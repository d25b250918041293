import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afl_lab import dl, gf, linalg, poly
from afl_lab.errors import CrossCheckError, InputError, InvariantError
from afl_lab.poly import (
    Modulus,
    Poly,
    factor,
    is_irreducible,
    plain_factor,
    poly_gcd,
    power_product,
    star,
)
from conftest import poly_from_ints, random_monic, tables_with
from oracles import divisor_exponents, divisor_poly, gcd_by_division, is_irreducible_by_gcds


def x_minus_enc(p, enc):
    return Poly.x_minus(gf.elem_from_encoding(p, 2, enc))


# ---------------------------------------------------------------------------
# star


def test_star_fixes_t_minus_one():
    f = Poly.x_minus(gf.one(3, 2))
    assert star(f) == f


def test_star_fixes_norm_one_root():
    i = gf.gen(3, 2)
    assert star(Poly.x_minus(i)) == Poly.x_minus(i)


def test_star_swaps_order_eight_root():
    i = gf.gen(3, 2)
    c = gf.one(3, 2) + i  # order 8, norm != 1
    assert star(Poly.x_minus(c)) == Poly.x_minus(-c)


def test_star_rejects_zero_constant_term():
    with pytest.raises(InputError):
        star(Poly.x(3, 2))


def test_star_roots_are_conjugate_inverses(rng):
    for _ in range(20):
        enc = rng.randrange(1, 9)
        r = gf.elem_from_encoding(3, 2, enc)
        image = star(Poly.x_minus(r))
        expected_root = gf.conj(r).inverse()
        assert image == Poly.x_minus(expected_root)


@settings(max_examples=40)
@given(st.sampled_from([3, 5]), st.integers(1, 5), st.integers(1, 5), st.integers(0, 10**6))
def test_star_involution_and_multiplicativity(p, d1, d2, seed):
    rng = random.Random(seed)
    f = random_monic(p, 2, d1, rng)
    g = random_monic(p, 2, d2, rng)
    assert star(star(f)) == f
    assert star(star(g)) == g
    assert star(f * g) == star(f) * star(g)
    assert star(f).degree == f.degree


# ---------------------------------------------------------------------------
# factorization


def test_factor_cube_of_linear():
    one = gf.one(3, 2)
    f = Poly.x_minus(one) * Poly.x_minus(one) * Poly.x_minus(one)
    fact = factor(f)
    assert [(g, a) for g, a in fact.factors] == [(Poly.x_minus(one), 3)]
    assert fact.pairing == (0,)


def test_factor_three_linears_with_swap():
    i = gf.gen(3, 2)
    c = gf.one(3, 2) + i
    f = Poly.x_minus(c) * Poly.x_minus(-c) * Poly.x_minus(i)
    fact = factor(f)
    assert len(fact.factors) == 3
    selfs = fact.self_paired()
    pairs = fact.pairs()
    assert len(selfs) == 1 and len(pairs) == 1
    assert fact.factors[selfs[0]][0] == Poly.x_minus(i)
    j, k = pairs[0]
    assert {fact.factors[j][0], fact.factors[k][0]} == {Poly.x_minus(c), Poly.x_minus(-c)}


def test_factor_quadratic_splits_into_plus_minus_i():
    f = poly_from_ints(3, 2, [[1, 0], [0, 0], [1, 0]])  # T^2 + 1
    i = gf.gen(3, 2)
    fact = factor(f)
    assert {g for g, _ in fact.factors} == {Poly.x_minus(i), Poly.x_minus(-i)}
    assert all(a == 1 for _, a in fact.factors)


def test_factor_rejects_unpaired_input():
    # T - c alone has no star partner in its factor set
    c = gf.one(3, 2) + gf.gen(3, 2)
    with pytest.raises(InvariantError):
        factor(Poly.x_minus(c))


def test_factor_refuses_a_zero_constant_term():
    zero, one = gf.zero(3, 2), gf.one(3, 2)
    with pytest.raises(InvariantError, match="zero constant term"):
        factor(Poly.x_minus(zero) * Poly.x_minus(one))


def test_factor_refuses_exponents_that_differ_across_the_pairing():
    # P star(P)^2 with P = T - c, c not of norm one, so star(P) != P
    c = gf.one(3, 2) + gf.gen(3, 2)
    assert c**4 != gf.one(3, 2)
    p = Poly.x_minus(c)
    with pytest.raises(InvariantError, match="exponents differ across the involution"):
        factor(p * star(p) * star(p))


def test_factor_refuses_a_self_paired_factor_of_even_degree(monkeypatch):
    # no irreducible of even degree is self-paired, so star is made the identity
    elems = [gf.elem_from_encoding(3, 2, c) for c in range(9)]
    quadratic = next(
        f for f in (Poly.from_elems(3, 2, [a, b, gf.one(3, 2)]) for a in elems[1:] for b in elems)
        if is_irreducible(f)
    )
    monkeypatch.setattr(poly, "star", lambda f: f)
    with pytest.raises(InvariantError, match="self-paired factor of even degree"):
        factor(quadratic)


def test_factor_reconstructs_product(rng):
    for p in (3, 5):
        for _ in range(10):
            f = random_monic(p, 2, rng.randrange(1, 7), rng)
            flat = plain_factor(f)
            prod = Poly.one(p, 2)
            for g, a in flat:
                assert is_irreducible(g)
                for _ in range(a):
                    prod = prod * g
            assert prod == f


def test_factor_deterministic_given_seed(rng):
    f = random_monic(3, 2, 6, rng)
    assert plain_factor(f) == plain_factor(f)


def test_self_paired_factors_have_odd_degree(rng):
    # randomized sweep: every irreducible with star(P) = P found has odd degree
    hits = 0
    for p in (3, 5, 7):
        for _ in range(15):
            f = random_monic(p, 2, rng.randrange(2, 9), rng)
            for g, _ in plain_factor(f):
                if g.coeffs[0].is_zero:
                    continue
                if star(g) == g:
                    hits += 1
                    assert g.degree % 2 == 1
    assert hits > 5


def test_is_irreducible_matches_rabins_test_on_every_small_monic():
    # every monic of degree 1-4 over F_3 and over F_9, squares and products
    # of equal-degree factors included, and samples of degree 1-6 over F_25
    checked = irreducible = 0
    for p, level, max_degree in ((3, 1, 4), (3, 2, 4)):
        field = [gf.elem_from_encoding(p, level, k) for k in range(p**level)]
        for degree in range(1, max_degree + 1):
            for low in itertools.product(field, repeat=degree):
                f = Poly(p, level, (*low, gf.one(p, level)))
                expected = is_irreducible_by_gcds(f)
                assert is_irreducible(f) == expected, f
                assert is_irreducible(f.scale(field[-1])) == expected
                checked += 1
                irreducible += expected
    # 3 + 3 + 8 + 18 monic irreducibles over F_3, 9 + 36 + 240 + 1620 over F_9
    assert (checked, irreducible) == (7500, 1937)
    assert not is_irreducible(Poly.zero(3, 2)) and not is_irreducible(Poly.one(3, 2))
    rng = random.Random(25)
    hits = 0
    for _ in range(300):
        f = random_monic(5, 2, rng.randrange(1, 7), rng, nonzero_constant=False)
        expected = is_irreducible_by_gcds(f)
        assert is_irreducible(f) == expected, f
        hits += expected
    assert 50 < hits < 250


def test_distinct_degree_stops_at_half_the_degree(monkeypatch):
    # an irreducible of degree n takes n // 2 powmods, so a linear one takes
    # none: no factor of degree d > n / 2 can split off
    calls = []
    powmod = Poly.powmod
    monkeypatch.setattr(Poly, "powmod", lambda self, e, m: calls.append(m.degree) or powmod(self, e, m))
    rng = random.Random(7)
    for p in (3, 5):
        for degree in range(1, 8):
            f = random_monic(p, 2, degree, rng)
            while not is_irreducible_by_gcds(f):
                f = random_monic(p, 2, degree, rng)
            calls.clear()
            assert is_irreducible(f)
            assert calls == [degree] * (degree // 2), (p, degree)
    calls.clear()
    for c in range(9):
        f = x_minus_enc(3, c)
        assert is_irreducible(f) and poly._distinct_degree(f) == [(f, 1)]
    assert calls == []


# ---------------------------------------------------------------------------
# divisors


def _fact_of(sig_polys):
    # helper: build a FactoredPoly through factor() from explicit factors
    prod = Poly.one(3, 2)
    for g, a in sig_polys:
        for _ in range(a):
            prod = prod * g
    return factor(prod)


def test_divisors_of_single_factor():
    fact = _fact_of([(Poly.x_minus(gf.one(3, 2)), 1)])
    assert list(divisor_exponents(fact.factors)) == [(0,), (1,)]


class MatrixNotRead(Exception):
    pass


class UnreadMatrix:
    """Stands for M in invariant_subspaces: any read of it raises
    MatrixNotRead, so a refusal before it is the divisor bound."""

    def __getattr__(self, name):
        raise MatrixNotRead(name)


@pytest.mark.parametrize(
    "multiplicities",
    [[1] * 18, [linalg.DIVISOR_MAX, 1], [2] * 11],
    ids=["2^18", "bound_times_2", "3^11"],
)
def test_divisors_above_the_bound_are_an_input_error(multiplicities):
    # only the multiplicities are read; the count is known before M is
    with pytest.raises(InputError, match=f"more than {linalg.DIVISOR_MAX}"):
        linalg.invariant_subspaces(UnreadMatrix(), [(None, a) for a in multiplicities])


@pytest.mark.parametrize("multiplicities", [[1] * 17, [linalg.DIVISOR_MAX - 1]], ids=["2^17", "one_chain"])
def test_divisors_at_the_bound_are_enumerated(multiplicities):
    # the bound is inclusive: invariant_subspaces goes on to read M, and the
    # full product has exactly the bound's divisors
    assert linalg.DIVISOR_MAX == 2**17
    pairs = [(None, a) for a in multiplicities]
    with pytest.raises(MatrixNotRead):
        linalg.invariant_subspaces(UnreadMatrix(), pairs)
    assert len(list(divisor_exponents(pairs))) == linalg.DIVISOR_MAX


def test_divisors_of_cube():
    fact = _fact_of([(Poly.x_minus(gf.one(3, 2)), 3)])
    assert len(list(divisor_exponents(fact.factors))) == 4


def test_divisors_of_three_distinct():
    i = gf.gen(3, 2)
    fact = _fact_of([(Poly.x_minus(gf.one(3, 2)), 1), (Poly.x_minus(i), 1), (Poly.x_minus(-i), 1)])
    vecs = list(divisor_exponents(fact.factors))
    assert len(vecs) == 8
    assert vecs == sorted(vecs)  # lexicographic order
    full = divisor_poly(fact.factors, (1, 1, 1))
    assert full == power_product(fact.factors)


def test_divisor_count_matches_formula(rng):
    for _ in range(5):
        f = random_monic(3, 2, rng.randrange(1, 6), rng)
        flat = plain_factor(f)
        expected = 1
        for _, a in flat:
            expected *= a + 1
        assert len(list(divisor_exponents(flat))) == expected


def test_gcd_is_monic(rng):
    f = random_monic(3, 2, 4, rng)
    g = random_monic(3, 2 , 3, rng)
    h = poly_gcd(f * g, g)
    assert h.is_monic and divmod(h, g)[1] == Poly.zero(3, 2) or divmod(g, h)[1] == Poly.zero(3, 2)


# ---------------------------------------------------------------------------
# packed products and fixed-modulus remainders above the cap, against the
# schoolbook product and the long-division remainder they replace


def schoolbook_product(f: Poly, g: Poly) -> Poly:
    """One field product per pair of coefficients, each reduced on its own."""
    if f.is_zero or g.is_zero:
        return Poly.zero(f.p, f.level)
    out = [gf.zero(f.p, f.level)] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            out[i + j] = out[i + j] + a * b
    return Poly.from_elems(f.p, f.level, out)


def powmod_by_long_division(f: Poly, e: int, g: Poly) -> Poly:
    """Square and multiply, each step a schoolbook product and a long division."""
    result, base = Poly.one(f.p, f.level), divmod(f, g)[1]
    while e:
        if e & 1:
            result = divmod(schoolbook_product(result, base), g)[1]
        base = divmod(schoolbook_product(base, base), g)[1]
        e >>= 1
    return result


def random_poly(p, level, length, rng):
    coeffs = [gf.elem(p, level, [rng.randrange(p) for _ in range(level)]) for _ in range(length)]
    return Poly.from_elems(p, level, coeffs)


def top_poly(p, level, length, monic=False):
    top = gf.FieldElem(p, level, (p - 1,) * level)
    return Poly(p, level, (top,) * (length - 1) + ((gf.one(p, level) if monic else top),))


# the smallest levels above the cap for q = 3, 5, 7, 17, and q = 16381
PACKED = [(3, 6), (5, 4), (7, 4), (17, 2), (16381, 2), (16381, 6)]
PACKED_IDS = [f"F{p}^{lv}" for p, lv in PACKED]


@pytest.mark.parametrize("p,level", PACKED, ids=PACKED_IDS)
def test_packed_product_matches_schoolbook(p, level):
    rng = random.Random(f"poly-mul:{p}:{level}")
    for m1, m2 in ((1, 1), (1, 7), (2, 5), (6, 6), (9, 4), (13, 11)):
        f, g = random_poly(p, level, m1, rng), random_poly(p, level, m2, rng)
        assert f * g == schoolbook_product(f, g)
    assert f * Poly.zero(p, level) == Poly.zero(p, level)
    f, g = top_poly(p, level, 8), top_poly(p, level, 5)
    assert f * g == schoolbook_product(f, g)


@pytest.mark.parametrize("p,level", [(3, 6), (3, 14), (3, 18), (5, 6), (31, 4), (16381, 6)])
def test_packed_gcd_equals_euclid_by_division(p, level):
    # seeded pairs c u, c v with a planted common factor c, in both orders,
    # with zero and constant operands and with non-monic leading terms
    rng = random.Random(f"gcd:{p}:{level}")
    for lc, lu, lv in ((1, 1, 1), (2, 3, 1), (4, 5, 5), (1, 0, 4), (3, 2, 0), (2, 1, 6), (6, 4, 3), (0, 3, 2)):
        c, u, v = (random_poly(p, level, n, rng) for n in (lc, lu, lv))
        a, b = c * u, c * v
        for x, y in ((a, b), (b, a)):
            h = poly_gcd(x, y)
            assert h == gcd_by_division(x, y)
            assert h.is_zero if c.is_zero else h.is_monic and divmod(h, c)[1].is_zero  # c divides the gcd
    top = top_poly(p, level, 7)
    assert poly_gcd(top * top, top) == gcd_by_division(top * top, top) == top.monic()


@pytest.mark.parametrize("level,length", [(2, 82), (54, 28)], ids=["level2-N_MAX", "level2T_MAX-T_MAX"])
def test_packed_product_holds_the_worst_case_at_p_max(level, length):
    # a charpoly of degree N_MAX at level 2, of degree T_MAX at level 2 T_MAX:
    # every coefficient p - 1 fills each slot of the middle block to its bound
    p = gf.P_MAX
    f = top_poly(p, level, length)
    assert f * f == schoolbook_product(f, f)


@pytest.mark.parametrize("level", [2, 6])
def test_long_division_with_a_broken_inverse_stops(level, monkeypatch):
    # a step that leaves the leading term would repeat forever: divmod's
    # loop and poly_gcd's on encodings (level 2) raise instead; above the
    # cap poly_gcd takes no inverse before its last step
    # (test_packed_gcd_with_a_broken_fold_stops)
    real_index_rows = gf.index_rows

    def broken_index_rows(*vectors):
        enc = real_index_rows(*vectors)
        return None if enc is None else (tables_with(enc[0], inv=list(range(len(enc[0].elems)))), enc[1])

    monkeypatch.setattr(gf, "index_rows", broken_index_rows)
    monkeypatch.setattr(gf.FieldElem, "inverse", lambda self: self)
    x, one = gf.gen(3, level), gf.one(3, level)
    f, g = Poly.from_elems(3, level, [one, x, x]), Poly.from_elems(3, level, [one, x])
    if level == 2:
        with pytest.raises(CrossCheckError, match="leading term"):
            poly_gcd(f, g)
    with pytest.raises(CrossCheckError, match="leading term"):
        divmod(f, g)


@pytest.mark.parametrize("p,level", [(3, 6), (16381, 2)])
def test_packed_gcd_with_a_broken_fold_stops(p, level, monkeypatch):
    # a pseudo-remainder step whose top block folds to a nonzero element
    # would keep the degree and repeat forever: poly_gcd raises instead.
    # Every slot of that block is a multiple of p, so no row of
    # gf._fold_rows reaches it; the broken fold returns 1 for the top block
    real_fold = gf.fold_blocks

    def fold_leaving_the_top_block(p, level, width, count, acc):
        return real_fold(p, level, width, count, acc)[:-1] + [gf.one(p, level)]

    x, one = gf.gen(p, level), gf.one(p, level)
    f, g = Poly.from_elems(p, level, [one, x, x]), Poly.from_elems(p, level, [one, x])
    assert poly_gcd(f, g) == gcd_by_division(f, g)
    monkeypatch.setattr(gf, "fold_blocks", fold_leaving_the_top_block)
    with pytest.raises(CrossCheckError, match="leading term"):
        poly_gcd(f, g)


@pytest.mark.parametrize("p,level", PACKED, ids=PACKED_IDS)
@pytest.mark.parametrize("degree", [1, 2, 5, 9])
def test_modulus_matches_long_division(p, level, degree):
    rng = random.Random(f"modulus:{p}:{level}:{degree}")
    g = random_monic(p, level, degree, rng)
    ring = Modulus(g)
    for length in (0, 1, degree, degree + 1, 2 * degree, 2 * degree + 1, 5 * degree + 3):
        f = random_poly(p, level, length, rng)
        assert ring.reduce(f) == divmod(f, g)[1]
    for _ in range(6):
        a, b = (random_poly(p, level, degree, rng) for _ in "ab")
        assert ring.mul(a, b) == divmod(schoolbook_product(a, b), g)[1]
        assert ring.mul(a, a) == divmod(schoolbook_product(a, a), g)[1]
    top = top_poly(p, level, degree)
    assert ring.mul(top, top) == divmod(schoolbook_product(top, top), g)[1]
    f = random_poly(p, level, 3 * degree, rng)
    for e in (0, 1, 2, 5, p, p * p + 3):
        assert f.powmod(e, g) == powmod_by_long_division(f, e, g)
    # a modulus that is not monic gives the same remainders as its monic multiple
    scaled = g.scale(gf.elem(p, level, [2] + [1] * (level - 1)))
    assert f.powmod(7, scaled) == powmod_by_long_division(f, 7, g)


@pytest.mark.parametrize("level,degree", [(2, 81), (54, 27)], ids=["level2-N_MAX", "level2T_MAX-T_MAX"])
def test_modulus_holds_the_worst_case_at_p_max(level, degree):
    # 2 degree - 1 products meet in the low blocks of a residue product
    p = gf.P_MAX
    g, a = top_poly(p, level, degree + 1, monic=True), top_poly(p, level, degree)
    assert Modulus(g).mul(a, a) == divmod(schoolbook_product(a, a), g)[1]


def test_modulus_builds_its_fold_rows_on_first_read():
    # a residue raised to the power 1, as the trace split does at p = 3,
    # needs no fold and builds no row; a square builds them once
    rng = random.Random("modulus-rows")
    g = random_monic(31, 2, 5, rng)
    ring, f = Modulus(g), random_poly(31, 2, 5, rng)
    assert ring.power(f, 1) == f and "rows" not in vars(ring)
    assert ring.power(f, 2) == powmod_by_long_division(f, 2, g) and len(vars(ring)["rows"]) == 5


def test_modulus_needs_a_monic_modulus_of_positive_degree():
    for g in (Poly.one(3, 6), Poly.from_elems(3, 6, [gf.one(3, 6), gf.gen(3, 6)])):
        with pytest.raises(InputError):
            Modulus(g)


def test_powmod_by_a_constant_raises():
    # a modulus of degree 0 is refused over a tabled field (F_9) and above
    # the cap (F_729), as Modulus refuses it; the zero polynomial stays a
    # division by zero
    for level, e in itertools.product((2, 6), (0, 3)):
        f = Poly.x(3, level)
        with pytest.raises(InputError, match="positive degree"):
            f.powmod(e, Poly.one(3, level))
        with pytest.raises(ZeroDivisionError):
            f.powmod(e, Poly.zero(3, level))


def cubic(q):
    """x^3 + x + 1 over F_{q^2}."""
    return poly_from_ints(q, 2, [[1], [1], [], [1]])


# each route squares in gf.power, whose loop would never end on e < 0; F_9
# is tabled, F_961 above the cap
NEGATIVE_POWERS = {
    "FieldElem": lambda: gf.gen(3, 2) ** -1,
    "powmod tabled": lambda: Poly.x(3, 2).powmod(-1, cubic(3)),
    "powmod above the cap": lambda: Poly.x(31, 2).powmod(-1, cubic(31)),
    "Modulus.power": lambda: Modulus(cubic(31)).power(Poly.x(31, 2), -1),
}


@pytest.mark.parametrize("route", sorted(NEGATIVE_POWERS))
def test_negative_exponent_raises(route):
    with pytest.raises(InputError, match="negative exponent"):
        NEGATIVE_POWERS[route]()


def test_tabled_fields_keep_the_schoolbook_product(rng):
    f, g = random_monic(3, 2, 5, rng), random_monic(3, 2, 4, rng)
    h = f * g
    assert h == schoolbook_product(f, g)
    assert all(c._tables is not None for c in h.coeffs)
    assert f.powmod(10, g) == powmod_by_long_division(f, 10, g)


# ---------------------------------------------------------------------------
# the Cantor-Zassenhaus bound


@pytest.mark.parametrize("draw", ["constant", "f_plus_one"])
def test_equal_degree_split_gives_up_after_split_tries(draw, monkeypatch):
    # (x - 1)(x - i) over F_9 with draws that never split it, as broken
    # arithmetic would: a constant (skipped) or f + 1 (coprime to f, and its
    # power is 1 mod f); every draw counts as a try
    f = x_minus_enc(3, 1) * x_minus_enc(3, 3)
    f_plus_one = Poly.from_elems(3, 2, (f.coeffs[0] + gf.one(3, 2),) + f.coeffs[1:])
    never = Poly.one(3, 2) if draw == "constant" else f_plus_one
    draws = []

    def stub(p, level, max_deg, rng):
        draws.append(max_deg)
        return never

    monkeypatch.setattr(poly, "_random_poly", stub)
    with pytest.raises(CrossCheckError, match=f"degree-2 product in {poly.SPLIT_TRIES} tries"):
        poly._equal_degree(f, 1, random.Random(0))
    assert len(draws) == poly.SPLIT_TRIES


def test_split_tries_is_shared_with_the_trace_split():
    assert dl.SPLIT_TRIES is poly.SPLIT_TRIES == 64
