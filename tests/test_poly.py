import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afl_lab import dl, gf, poly
from afl_lab.errors import CrossCheckError, InputError, InvariantError
from afl_lab.poly import (
    Modulus,
    Poly,
    divisor_exponents,
    factor,
    is_irreducible,
    plain_factor,
    poly_gcd,
    star,
)
from conftest import poly_from_ints, random_monic, tables_with
from oracles import divisor_poly


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
    fact = factor(f, 0)
    assert [(g, a) for g, a in fact.factors] == [(Poly.x_minus(one), 3)]
    assert fact.pairing == (0,)


def test_factor_three_linears_with_swap():
    i = gf.gen(3, 2)
    c = gf.one(3, 2) + i
    f = Poly.x_minus(c) * Poly.x_minus(-c) * Poly.x_minus(i)
    fact = factor(f, 0)
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
    fact = factor(f, 0)
    assert {g for g, _ in fact.factors} == {Poly.x_minus(i), Poly.x_minus(-i)}
    assert all(a == 1 for _, a in fact.factors)


def test_factor_rejects_unpaired_input():
    # T - c alone has no star partner in its factor set
    c = gf.one(3, 2) + gf.gen(3, 2)
    with pytest.raises(InvariantError):
        factor(Poly.x_minus(c), 0)


def test_factor_reconstructs_product(rng):
    for p in (3, 5):
        for _ in range(10):
            f = random_monic(p, 2, rng.randrange(1, 7), rng)
            flat = plain_factor(f, 17)
            prod = Poly.one(p, 2)
            for g, a in flat:
                assert is_irreducible(g)
                for _ in range(a):
                    prod = prod * g
            assert prod == f


def test_factor_deterministic_given_seed(rng):
    f = random_monic(3, 2, 6, rng)
    assert plain_factor(f, 5) == plain_factor(f, 5)


def test_self_paired_factors_have_odd_degree(rng):
    # randomized sweep: every irreducible with star(P) = P found has odd degree
    hits = 0
    for p in (3, 5, 7):
        for _ in range(15):
            f = random_monic(p, 2, rng.randrange(2, 9), rng)
            for g, _ in plain_factor(f, 3):
                if g.coeffs[0].is_zero:
                    continue
                if star(g) == g:
                    hits += 1
                    assert g.degree % 2 == 1
    assert hits > 5


# ---------------------------------------------------------------------------
# divisors


def _fact_of(sig_polys):
    # helper: build a FactoredPoly through factor() from explicit factors
    prod = Poly.one(3, 2)
    for g, a in sig_polys:
        for _ in range(a):
            prod = prod * g
    return factor(prod, 0)


def test_divisors_of_single_factor():
    fact = _fact_of([(Poly.x_minus(gf.one(3, 2)), 1)])
    assert divisor_exponents(fact) == [(0,), (1,)]


@pytest.mark.parametrize(
    "multiplicities",
    [[1] * 18, [poly.DIVISOR_MAX, 1], [2] * 11],
    ids=["2^18", "bound_times_2", "3^11"],
)
def test_divisors_above_the_bound_are_an_input_error(multiplicities):
    # only the multiplicities are read; the count is known before enumerating
    with pytest.raises(InputError, match=f"more than {poly.DIVISOR_MAX}"):
        divisor_exponents([(None, a) for a in multiplicities])


@pytest.mark.parametrize("multiplicities", [[1] * 17, [poly.DIVISOR_MAX - 1]], ids=["2^17", "one_chain"])
def test_divisors_at_the_bound_are_enumerated(multiplicities):
    assert poly.DIVISOR_MAX == 2**17
    assert len(divisor_exponents([(None, a) for a in multiplicities])) == poly.DIVISOR_MAX


def test_divisors_of_cube():
    fact = _fact_of([(Poly.x_minus(gf.one(3, 2)), 3)])
    assert len(divisor_exponents(fact)) == 4


def test_divisors_of_three_distinct():
    i = gf.gen(3, 2)
    fact = _fact_of([(Poly.x_minus(gf.one(3, 2)), 1), (Poly.x_minus(i), 1), (Poly.x_minus(-i), 1)])
    vecs = divisor_exponents(fact)
    assert len(vecs) == 8
    assert vecs == sorted(vecs)  # lexicographic order
    full = divisor_poly(fact, (1, 1, 1))
    assert full == fact.product()


def test_divisor_count_matches_formula(rng):
    for _ in range(5):
        f = random_monic(3, 2, rng.randrange(1, 6), rng)
        flat = plain_factor(f, 2)
        expected = 1
        for _, a in flat:
            expected *= a + 1
        assert len(divisor_exponents(flat)) == expected


def test_gcd_is_monic(rng):
    f = random_monic(3, 2, 4, rng)
    g = random_monic(3, 2 , 3, rng)
    h = poly_gcd(f * g, g)
    assert h.is_monic and h % g == Poly.zero(3, 2) or g % h == Poly.zero(3, 2)


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
    result, base = Poly.one(f.p, f.level), f % g
    while e:
        if e & 1:
            result = schoolbook_product(result, base) % g
        base = schoolbook_product(base, base) % g
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


@pytest.mark.parametrize("level,length", [(2, 82), (54, 28)], ids=["level2-N_MAX", "level2T_MAX-T_MAX"])
def test_packed_product_holds_the_worst_case_at_p_max(level, length):
    # a charpoly of degree N_MAX at level 2, of degree T_MAX at level 2 T_MAX:
    # every coefficient p - 1 fills each slot of the middle block to its bound
    p = gf.P_MAX
    f = top_poly(p, level, length)
    assert f * f == schoolbook_product(f, f)


@pytest.mark.parametrize("level", [2, 6])
def test_long_division_with_a_broken_inverse_stops(level, monkeypatch):
    # a step that leaves the leading term would repeat forever: both loops
    # (on encodings at level 2, on elements at level 6) raise instead
    real_index_rows = gf.index_rows

    def broken_index_rows(*vectors):
        enc = real_index_rows(*vectors)
        return None if enc is None else (tables_with(enc[0], inv=list(range(len(enc[0].elems)))), enc[1])

    monkeypatch.setattr(gf, "index_rows", broken_index_rows)
    monkeypatch.setattr(gf.FieldElem, "inverse", lambda self: self)
    x, one = gf.gen(3, level), gf.one(3, level)
    f, g = Poly.from_elems(3, level, [one, x, x]), Poly.from_elems(3, level, [one, x])
    with pytest.raises(AssertionError, match="leading term"):
        divmod(f, g)


@pytest.mark.parametrize("p,level", PACKED, ids=PACKED_IDS)
@pytest.mark.parametrize("degree", [1, 2, 5, 9])
def test_modulus_matches_long_division(p, level, degree):
    rng = random.Random(f"modulus:{p}:{level}:{degree}")
    g = random_monic(p, level, degree, rng)
    ring = Modulus(g)
    for length in (0, 1, degree, degree + 1, 2 * degree, 2 * degree + 1, 5 * degree + 3):
        f = random_poly(p, level, length, rng)
        assert ring.reduce(f) == f % g
    for _ in range(6):
        a, b = (random_poly(p, level, degree, rng) for _ in "ab")
        assert ring.mul(a, b) == schoolbook_product(a, b) % g
        assert ring.mul(a, a) == schoolbook_product(a, a) % g
    top = top_poly(p, level, degree)
    assert ring.mul(top, top) == schoolbook_product(top, top) % g
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
    assert Modulus(g).mul(a, a) == schoolbook_product(a, a) % g


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
    never = Poly.one(3, 2) if draw == "constant" else f + Poly.one(3, 2)
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
