"""The kernels that run on encodings over a tabled field, against the
FieldElem loops they replace.

Over a field of at most gf.TABLE_CAP elements, rref, charpoly, @, apply,
conj, eval_poly and the Poly product, division, powmod and gcd take their
operands' encodings from gf.index_rows and loop on ints.  With index_rows
answering None, as it does above the cap, every one of them runs its
FieldElem loop instead (the packed dot and the Kronecker product for @,
apply and Poly *, frob_q for conj, Modulus for powmod): that route is the
oracle here, on every tabled field the tower or the Gram solve uses,
exhaustively on 1 x 1 and degree-1 inputs over F_9 and on seeded random
inputs up to n = 9.
"""

import itertools
import random
from contextlib import contextmanager

import pytest

from afl_lab import gf
from afl_lab.errors import InputError
from afl_lab.linalg import Matrix, charpoly, rref
from afl_lab.poly import Poly, poly_gcd
from test_gf import TABLED, odd_primes
from test_poly import powmod_by_long_division, schoolbook_product

# every tabled field: F_9 to F_169, F_27, F_81, F_125, F_243, and F_p for
# every p <= 251, where the Gram solve works
FIELDS = sorted(set(TABLED) | {(p, 1) for p in odd_primes(251)}, key=lambda f: (f[1], f[0]))
IDS = [f"F{p}^{lv}" for p, lv in FIELDS]


@contextmanager
def by_elements():
    """Run the kernels on their FieldElem loops, as above the cap."""
    real = gf.index_rows
    gf.index_rows = lambda *vectors: None
    try:
        yield
    finally:
        gf.index_rows = real


def oracle(fn, *args):
    with by_elements():
        return fn(*args)


def field_elems(p, level):
    return [gf.elem_from_encoding(p, level, k) for k in range(p**level)]


def draw(p, level, rng, density=1.0):
    if rng.random() >= density:
        return gf.zero(p, level)
    return gf.elem_from_encoding(p, level, rng.randrange(p**level))


def rows_of(p, level, nrows, ncols, rng, density=1.0):
    return [[draw(p, level, rng, density) for _ in range(ncols)] for _ in range(nrows)]


def poly_of(p, level, length, rng):
    return Poly.from_elems(p, level, [draw(p, level, rng) for _ in range(length)])


def systems(p, level, rng):
    """Echelon inputs: square, rank-deficient, with zero rows, wide, tall."""
    out = []
    for n in (1, 2, 5, 9):
        out.append(rows_of(p, level, n, n, rng))
        out.append(rows_of(p, level, n, n, rng, density=0.3))
    basis = rows_of(p, level, 3, 7, rng)
    combos = rows_of(p, level, 8, 3, rng)
    out.append([[gf.dot(c, col) for col in zip(*basis)] for c in combos])  # rank <= 3, tall
    with_zero_rows = rows_of(p, level, 4, 6, rng) + [[gf.zero(p, level)] * 6] * 2
    rng.shuffle(with_zero_rows)
    out += [with_zero_rows, rows_of(p, level, 3, 9, rng), rows_of(p, level, 9, 4, rng)]
    out.append([[gf.zero(p, level)] * 4] * 3)
    return out


# ---------------------------------------------------------------------------
# seeded random inputs on every tabled field


@pytest.mark.parametrize("p,level", FIELDS, ids=IDS)
def test_rref_on_encodings_matches_the_element_loop(p, level):
    rng = random.Random(f"rref:{p}:{level}")
    for rows in systems(p, level, rng):
        assert rref(rows) == oracle(rref, rows)


@pytest.mark.parametrize("p,level", FIELDS, ids=IDS)
def test_charpoly_on_encodings_matches_the_element_loop(p, level):
    rng = random.Random(f"charpoly:{p}:{level}")
    for n in range(1, 10):
        for density in (1.0, 0.3):
            m = Matrix.from_rows(p, level, rows_of(p, level, n, n, rng, density))
            assert charpoly(m) == oracle(charpoly, m)


@pytest.mark.parametrize("p,level", FIELDS, ids=IDS)
def test_products_on_encodings_match_the_packed_dot(p, level):
    rng = random.Random(f"matmul:{p}:{level}")
    for n, k, m in ((1, 1, 1), (2, 3, 4), (5, 5, 5), (9, 9, 9), (9, 2, 7)):
        for density in (1.0, 0.3):
            a = Matrix.from_rows(p, level, rows_of(p, level, n, k, rng, density))
            b = Matrix.from_rows(p, level, rows_of(p, level, k, m, rng, density))
            assert a @ b == oracle(a.__matmul__, b)
            v = b.transpose().rows[0]
            assert a.apply(v) == oracle(a.apply, v)


# conj on encodings on every tabled field, and its FieldElem loop above the cap
CONJ_FIELDS = FIELDS + [(17, 2), (3, 6)]


@pytest.mark.parametrize("p,level", CONJ_FIELDS, ids=[f"F{p}^{lv}" for p, lv in CONJ_FIELDS])
def test_conj_matches_entrywise_frob_q(p, level):
    rng = random.Random(f"conj:{p}:{level}")
    for n, k in ((1, 1), (2, 3), (5, 5), (9, 9), (9, 2)):
        for density in (1.0, 0.3):
            a = Matrix.from_rows(p, level, rows_of(p, level, n, k, rng, density))
            expected = Matrix.from_rows(p, level, [[gf.frob_q(x) for x in r] for r in a.rows])
            assert a.conj() == expected == oracle(a.conj)
            if level == 2:
                assert expected.conj() == a


@pytest.mark.parametrize("p,level", FIELDS, ids=IDS)
def test_eval_poly_on_encodings_matches_the_element_loop(p, level):
    rng = random.Random(f"eval:{p}:{level}")
    for n in (1, 3, 6, 9):
        m = Matrix.from_rows(p, level, rows_of(p, level, n, n, rng, density=0.6))
        for length in range(0, 7):
            f = poly_of(p, level, length, rng)
            assert m.eval_poly(f) == oracle(m.eval_poly, f)


@pytest.mark.parametrize("p,level", FIELDS, ids=IDS)
def test_poly_kernels_on_encodings_match_the_element_loops(p, level):
    rng = random.Random(f"poly:{p}:{level}")
    for la, lb in ((1, 1), (3, 1), (1, 4), (6, 3), (9, 9), (10, 4), (0, 3)):
        f, g = poly_of(p, level, la, rng), poly_of(p, level, lb, rng)
        assert f * g == oracle(f.__mul__, g) == schoolbook_product(f, g)
        if not g.is_zero:
            assert divmod(f, g) == oracle(divmod, f, g)
        if g.degree >= 1:  # a constant modulus is refused (test_poly)
            for e in (0, 1, 2, 5, p**level + 3):
                assert f.powmod(e, g) == oracle(f.powmod, e, g) == oracle(powmod_by_long_division, f, e, g)
        assert poly_gcd(f * g, g) == oracle(poly_gcd, f * g, g)
        assert poly_gcd(f, g) == oracle(poly_gcd, f, g)


# ---------------------------------------------------------------------------
# every 1 x 1 and degree-1 input over F_9

F9 = field_elems(3, 2)
LINEAR = [Poly.from_elems(3, 2, [c0, c1]) for c0 in F9 for c1 in F9[1:]]
UP_TO_LINEAR = [Poly.from_elems(3, 2, [c0, c1]) for c0 in F9 for c1 in F9]


def test_every_1x1_matrix_over_f9():
    singles = [Matrix.from_rows(3, 2, [[a]]) for a in F9]
    for m in singles:
        assert rref(m.rows) == oracle(rref, m.rows)
        assert charpoly(m) == oracle(charpoly, m)
        assert m.conj() == oracle(m.conj)
        for f in UP_TO_LINEAR:
            assert m.eval_poly(f) == oracle(m.eval_poly, f)
        for other in singles:
            assert m @ other == oracle(m.__matmul__, other)
            assert m.apply(other.rows[0]) == oracle(m.apply, other.rows[0])


def test_every_degree_1_pair_over_f9():
    for f, g in itertools.product(LINEAR, UP_TO_LINEAR):
        assert f * g == oracle(f.__mul__, g)
        assert poly_gcd(f, g) == oracle(poly_gcd, f, g)
        if not g.is_zero:
            assert divmod(f, g) == oracle(divmod, f, g)
            assert divmod(g, f) == oracle(divmod, g, f)
    for f, g in itertools.product(UP_TO_LINEAR, LINEAR):
        for e in (0, 1, 2, 9, 10):
            assert f.powmod(e, g) == oracle(f.powmod, e, g)


# ---------------------------------------------------------------------------
# mixing two tabled fields of one p raises in every kernel


def test_mixing_f9_with_f81_raises_in_every_kernel():
    a, b = gf.gen(3, 2), gf.gen(3, 4)
    zero81 = gf.zero(3, 4)
    for other in (b, zero81):  # a zero from the other field is still foreign
        m = Matrix.from_rows(3, 2, [[a, other], [a, a]])
        clean = Matrix.from_rows(3, 2, [[a, a], [a, a]])
        f = Poly(3, 2, (other, a))
        line = Poly(3, 2, (a, a))
        calls = [
            lambda: rref(m.rows),
            lambda: rref([list(reversed(r)) for r in m.rows]),
            lambda: charpoly(m),
            lambda: m.conj(),
            lambda: m @ clean,
            lambda: clean @ m,
            lambda: clean.apply([a, other]),
            lambda: m.apply([a, a]),
            lambda: clean.eval_poly(f),
            lambda: m.eval_poly(line),
            lambda: f * line,
            lambda: line * f,
            lambda: divmod(f, line),
            lambda: divmod(line, f),
            lambda: f.powmod(3, line),
            lambda: line.powmod(3, Poly(3, 2, (a, other, a))),
            lambda: poly_gcd(f, line),
            lambda: gf.dot([a, a], [other, a]),
            lambda: gf.dot([gf.zero(3, 2), a], [other, a]),
        ]
        for call in calls:
            with pytest.raises(InputError, match="elements live in different fields"):
                call()


# ---------------------------------------------------------------------------
# gf.dot's input checks


@pytest.mark.parametrize("level", [2, 6])
def test_dot_rejects_vectors_of_unequal_length(level):
    x = gf.gen(3, level)
    with pytest.raises(InputError, match="unequal length"):
        gf.dot([x, x], [x])
    with pytest.raises(InputError, match="unequal length"):
        gf.dot([x], [x, x])


def test_dot_rejects_a_foreign_term_behind_a_zero_entry():
    # the term y * 0 is skipped, but y still lies in another field
    gen9, y = gf.gen(3, 2), gf.gen(3, 4)
    with pytest.raises(InputError, match="elements live in different fields"):
        gf.dot([gf.zero(3, 2), gf.one(3, 2) + gen9], [y, gen9])
    big, other = gf.gen(3, 6), gf.gen(3, 8)
    with pytest.raises(InputError, match="elements live in different fields"):
        gf.dot([gf.zero(3, 6), big], [other, big])


def test_index_rows_gives_up_above_the_cap_and_on_no_entries():
    assert gf.index_rows([gf.gen(3, 6)], [gf.gen(3, 6)]) is None
    assert gf.index_rows([], ()) is None
    t, rows = gf.index_rows([gf.gen(3, 2), gf.zero(3, 2)], [], [gf.one(3, 2)])
    assert rows == [[3, 0], [], [1]]
    assert [t.elems[k] for k in rows[0]] == [gf.gen(3, 2), gf.zero(3, 2)]
