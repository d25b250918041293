import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afl_lab import gf
from afl_lab.errors import InputError

PRIMES = [3, 5, 7]


def elems(p, level):
    return st.builds(
        lambda cs: gf.elem(p, level, cs),
        st.lists(st.integers(0, p - 1), min_size=level, max_size=level),
    )


# ---------------------------------------------------------------------------
# towers


def test_tower_p3_quadratic_is_lex_min():
    assert gf.defining_poly(3, 2) == (1, 0, 1)  # T^2 + 1


def test_tower_p5_quadratic_is_lex_min():
    assert gf.defining_poly(5, 2) == (2, 0, 1)  # T^2 + 2


def test_tower_rejects_even_p():
    with pytest.raises(InputError):
        gf.make_tower(2, 2)


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
