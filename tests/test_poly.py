import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afl_lab import gf
from afl_lab.errors import InputError, InvariantError
from afl_lab.poly import (
    Poly,
    divisor_exponents,
    divisor_poly,
    factor,
    is_irreducible,
    plain_factor,
    poly_gcd,
    star,
)
from conftest import poly_from_ints, random_monic


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
