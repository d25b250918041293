import random
from dataclasses import dataclass

import pytest

from afl_lab import dl, gf
from afl_lab.dl import EigenlineRecord, dl_fixed_points, galois_orbit_check
from afl_lab.errors import CrossCheckError, InputError
from afl_lab.forge import build_block_instance, parse_signature, random_coxeter_instance
from afl_lab.hermitian import validate_space
from afl_lab.linalg import Matrix, charpoly
from afl_lab.poly import Modulus, Poly, is_irreducible, plain_factor, poly_gcd
from conftest import random_monic
from oracles import (
    Subspace,
    chains_per_record,
    combiner,
    frobenius_powers,
    frobenius_table_by_division,
    kernel,
    kernel_of_poly,
    line_key_by_rref,
    matrix_difference,
    non_residue,
    span,
)
from test_linalg import minpoly


def coxeter(q, t, seed):
    return random_coxeter_instance(q, t, seed)


# ---------------------------------------------------------------------------
# counts


def recorded_chain(gram, s, seed):
    """dl_fixed_points(gram, s, seed) and the one chain it evaluates, read
    through dl._dot: (records, v_0, the d + 1 values).  Every dot product
    must take v_0 as its left factor, so no other record's chain is formed."""
    dot, calls = dl._dot, []

    def recording(x, y):
        calls.append((x, dot(x, y)))
        return calls[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dl, "_dot", recording)
        records = dl_fixed_points(gram, s, seed=seed)
    assert len(calls) == (gram.n + 1) // 2
    assert all(x is calls[0][0] for x, _ in calls)
    return records, calls[0][0], [value for _, value in calls]


def test_t1_single_line():
    inst = coxeter(3, 1, 0)
    records, _, chain = recorded_chain(inst.space, inst.g, 0)
    assert len(records) == 1
    # d = 0: the only chain condition is h(l, l) != 0
    assert len(chain) == 1 and not chain[0].is_zero


def test_only_a_recount_that_draws_builds_its_rng(monkeypatch):
    # t = 1 reads its root off the charpoly and draws nothing; t = 3 keys
    # its rng as before, so every record is unchanged
    one, three = coxeter(3, 1, 0), coxeter(3, 3, 0)
    keys, real = [], random.Random
    monkeypatch.setattr(dl.random, "Random", lambda key: keys.append(key) or real(key))
    assert len(dl_fixed_points(one.space, one.g, seed=5)) == 1 and keys == []
    assert len(dl_fixed_points(three.space, three.g, seed=5)) == 3 and keys == ["dl:3:3:5"]


@pytest.mark.parametrize("q,t", [(3, 3), (3, 5), (5, 3)])
def test_count_equals_dimension(q, t):
    inst = coxeter(q, t, 1)
    records, _, chain = recorded_chain(inst.space, inst.g, 1)
    assert len(records) == t
    d = (t - 1) // 2
    assert all(c.is_zero for c in chain[:d])
    assert not chain[d].is_zero


def test_rejects_reducible_charpoly():
    inst = build_block_instance(parse_signature("cp:1:1,sp:1:1"), 3, 0)
    with pytest.raises(InputError):
        dl_fixed_points(inst.space, inst.g)


def test_valid_count_never_asks_for_irreducibility(monkeypatch):
    # t distinct roots in the orbit of one root prove the charpoly irreducible
    def forbidden(f):
        raise AssertionError("is_irreducible called on the success path")

    monkeypatch.setattr(dl, "is_irreducible", forbidden)
    for q, t, seed in ((3, 1, 0), (3, 5, 1), (5, 3, 2), (16381, 3, 0)):
        inst = coxeter(q, t, seed)
        assert len(dl_fixed_points(inst.space, inst.g, seed=seed)) == t


def test_failed_orbit_of_an_irreducible_charpoly_is_re_raised(monkeypatch):
    # only a reducible charpoly turns a failed orbit into InputError
    calls = []

    def broken_orbit(f, rng):
        raise CrossCheckError("broken orbit")

    def irreducible(f):
        calls.append(f)
        return is_irreducible(f)

    monkeypatch.setattr(dl, "_eigenvalue_orbit", broken_orbit)
    monkeypatch.setattr(dl, "is_irreducible", irreducible)
    inst = coxeter(3, 3, 1)
    with pytest.raises(CrossCheckError, match="broken orbit"):
        dl_fixed_points(inst.space, inst.g)
    assert calls == [charpoly(inst.g)]


@pytest.mark.parametrize("t", [1, 3])
def test_form_over_another_field_is_an_input_error(t):
    # s over F_9, the form over F_25: the first product of the two refuses
    inst, other = coxeter(3, t, 1), coxeter(5, t, 1)
    with pytest.raises(InputError, match="different fields|prime of the vector"):
        dl_fixed_points(other.space, inst.g)


def test_rejects_even_dim():
    inst = build_block_instance(parse_signature("cp:1:1"), 3, 0)
    with pytest.raises(InputError):
        dl_fixed_points(inst.space, inst.g)


def test_eigenvalues_form_tau_orbit():
    inst = coxeter(3, 3, 2)
    records = dl_fixed_points(inst.space, inst.g, seed=2)
    values = {gf.encode_int(r.eigenvalue) for r in records}
    mu = records[0].eigenvalue
    orbit = {gf.encode_int(mu)}
    cur = gf.tau_frob(mu)
    while gf.encode_int(cur) not in orbit:
        orbit.add(gf.encode_int(cur))
        cur = gf.tau_frob(cur)
    assert values == orbit


def _sesquilinear(gram_big: Matrix, x, y) -> gf.FieldElem:
    """The definition h(x, y) = x^T G conj(y), conj the q-power on each entry."""
    gy = gram_big.apply([gf.frob_q(c) for c in y])
    acc = gf.zero(gram_big.p, gram_big.level)
    for a, b in zip(x, gy):
        acc = acc + a * b
    return acc


def _big(m: Matrix, level: int) -> Matrix:
    return Matrix.from_rows(m.p, level, [[gf.embed(a, level) for a in row] for row in m.rows])


def test_chain_semilinearity():
    # h(tau x, tau y) = tau(h(x, y))
    inst = coxeter(3, 3, 3)
    records = dl_fixed_points(inst.space, inst.g, seed=3)

    gram_big = Matrix.from_rows(3, 6, [[gf.embed(a, 6) for a in row] for row in inst.space.rows])
    for rec in records:
        x = rec.vector
        y = records[0].vector
        tx = tuple(gf.tau_frob(c) for c in x)
        ty = tuple(gf.tau_frob(c) for c in y)
        assert _sesquilinear(gram_big, tx, ty) == gf.tau_frob(_sesquilinear(gram_big, x, y))


def tau_orbit_of(v, count):
    """v, tau v, ..., its first count tau-images."""
    vectors = [v]
    for _ in range(1, count):
        vectors.append(tuple(gf.tau_frob(c) for c in vectors[-1]))
    return vectors


@pytest.mark.parametrize("q,t,seed", [(3, 1, 0), (3, 3, 1), (3, 5, 2), (5, 5, 3), (7, 3, 4), (3, 7, 5)])
def test_chain_values_equal_the_definition(q, t, seed):
    # the chain h(v_0, tau^i v_0), i = 0..d, from the form itself
    inst = coxeter(q, t, seed)
    records, v0, chain = recorded_chain(inst.space, inst.g, seed)
    gram_big = _big(inst.space, 2 * t)
    assert len(records) == t
    assert v0 in {rec.vector for rec in records}
    for value, image in zip(chain, tau_orbit_of(v0, (t + 1) // 2), strict=True):
        assert value == _sesquilinear(gram_big, v0, image)


def qualifies(chain):
    *head, last = chain
    return all(c.is_zero for c in head) and not last.is_zero


@pytest.mark.parametrize(
    "q,t", [(q, t) for q in (3, 5, 17) for t in (1, 3, 5, 7, 9)] + [(31, 27), (16381, 27)]
)
def test_chains_equal_the_per_record_oracle(q, t):
    # dl forms the chain of v_0 alone; the oracle forms every record's chain
    # from its own dot products.  The records come back, all t of them,
    # exactly when every oracle chain qualifies: on the instance's form all
    # do, and on the identity form none does at t >= 3 (h(l, l) != 0 there)
    inst = coxeter(q, t, 0)
    counts = []
    for gram in (inst.space, Matrix.identity(q, 2, t)):
        records, v0, chain = recorded_chain(gram, inst.g, 0)
        oracle = chains_per_record(gram, tau_orbit_of(v0, t))
        assert chain == list(oracle[0])
        assert len(records) == (t if all(map(qualifies, oracle)) else 0)
        if records:
            assert {rec.vector for rec in records} == set(tau_orbit_of(v0, t))
        counts.append(len(records))
    assert counts == [t, 1 if t == 1 else 0]


def eigenvectors_by_kernel(s_big: Matrix, orbit):
    """Oracle for dl._orbit_eigenvectors: the canonical row of the kernel of
    s - mu_0 I, which must be a line, and its tau-orbit."""
    eig = kernel(matrix_difference(s_big, Matrix.identity(s_big.p, s_big.level, s_big.n).scale(orbit[0])))
    assert eig.dim == 1
    vectors = [eig.rows[0]]
    for _ in orbit[1:]:
        vectors.append(tuple(gf.tau_frob(c) for c in vectors[-1]))
    return vectors


@pytest.mark.parametrize(
    "q,t,seed",
    [(3, 1, 0), (3, 3, 1), (5, 3, 2), (3, 5, 3), (7, 5, 4), (3, 7, 5),
     (11, 3, 6), (11, 5, 7), (13, 5, 8), (17, 3, 9), (17, 7, 10), (16381, 3, 11), (16381, 5, 12)],
)
def test_orbit_eigenvectors_equal_per_eigenvalue_kernels(q, t, seed):
    # the Krylov row and its tau-images are the canonical row of each eigenspace
    inst = coxeter(q, t, seed)
    records = dl_fixed_points(inst.space, inst.g, seed=seed)
    s_big = _big(inst.g, 2 * t)
    ident = Matrix.identity(q, 2 * t, t)
    assert len(records) == t
    for rec in records:
        assert kernel(matrix_difference(s_big, ident.scale(rec.eigenvalue))).rows == (rec.vector,)
    orbit, s, f = _orbit_and_charpoly(q, t, seed)
    assert dl._orbit_eigenvectors(s, f, orbit) == eigenvectors_by_kernel(s_big, orbit)


def _orbit_and_charpoly(q, t, seed):
    inst = coxeter(q, t, seed)
    f = charpoly(inst.g)
    return dl._eigenvalue_orbit(f, random.Random(seed)), inst.g, f


def test_perturbed_derived_eigenvector_is_a_cross_check_failure(monkeypatch):
    orbit, s, f = _orbit_and_charpoly(3, 5, 1)
    assert len(dl._orbit_eigenvectors(s, f, orbit)) == 5
    tau = gf.tau_frob
    calls = []

    def tau_perturbing_v1(x):
        # the first coordinate of v_1 = tau(v_0) is moved off by one
        calls.append(x)
        y = tau(x)
        return y + gf.one(x.p, x.level) if len(calls) == 1 else y

    monkeypatch.setattr(gf, "tau_frob", tau_perturbing_v1)
    with pytest.raises(CrossCheckError, match="not an eigenvector"):
        dl._orbit_eigenvectors(s, f, orbit)


def test_non_root_first_eigenvalue_is_a_cross_check_failure():
    # the orbit already forces each eigenspace to be a line; what the
    # synthetic division checks is that mu_0 is a root at all
    orbit, s, f = _orbit_and_charpoly(3, 3, 2)
    not_a_root = orbit[0] + gf.one(3, 6)
    assert not_a_root not in orbit
    with pytest.raises(CrossCheckError, match="not a root"):
        dl._orbit_eigenvectors(s, f, [not_a_root] + orbit[1:])


@pytest.mark.parametrize("k", [1, 2])
def test_orbit_member_after_the_first_that_is_not_a_root_is_not_an_eigenvalue(k):
    # only mu_0 goes through the synthetic division; a later member is
    # checked by the eigenvector that tau carries to it
    orbit, s, f = _orbit_and_charpoly(3, 3, 2)
    broken = list(orbit)
    broken[k] = orbit[k] + gf.one(3, 6)
    assert broken[k] not in orbit
    with pytest.raises(CrossCheckError, match="not an eigenvector"):
        dl._orbit_eigenvectors(s, f, broken)


def test_vanishing_krylov_combination_is_a_cross_check_failure():
    # s = I with f = (x - 1)^3: 1 is a root, but h = (x - 1)^2 kills e_1
    s = Matrix.identity(3, 2, 3)
    f = charpoly(s)
    one = gf.one(3, 6)
    with pytest.raises(CrossCheckError, match="vanishes"):
        dl._orbit_eigenvectors(s, f, [one, one, one])


# ---------------------------------------------------------------------------
# the eigenvalues: one root and its Frobenius orbit, against all roots


def _roots_in_field(f: Poly, rng) -> list[gf.FieldElem]:
    """All roots of f in its own coefficient field, by equal-degree splitting.

    The oracle for dl._eigenvalue_orbit: it takes gcd(x^Q - x, f) and splits
    it into every linear factor, using neither irreducibility nor Frobenius."""
    p, level = f.p, f.level
    q_size = p**level
    x = Poly.x(p, level)
    linear_part = poly_gcd(x.powmod(q_size, f) - divmod(x, f)[1], f)
    roots = []

    def split(g: Poly):
        if g.degree == 0:
            return
        if g.degree == 1:
            roots.append(-g.coeffs[0] * g.coeffs[1].inverse())
            return
        while True:
            shift = gf.elem(p, level, [rng.randrange(p) for _ in range(level)])
            cand = Poly.x_minus(-shift).powmod((q_size - 1) // 2, g) - Poly.one(p, level)
            h = poly_gcd(cand, g)
            if 0 < h.degree < g.degree:
                split(h)
                split((g // h).monic())
                return

    split(linear_part.monic())
    return sorted(roots, key=gf.encode_int)


@pytest.mark.parametrize("q", [3, 5, 7])
@pytest.mark.parametrize("t", [3, 5, 7])
def test_eigenvalue_orbit_equals_all_roots(q, t):
    check_orbit_against_all_roots(q, t)


def test_eigenvalue_orbit_equals_all_roots_at_p_max():
    # the trace split raises to (p-1)/2 = 8190 here, to 1 at q = 3
    check_orbit_against_all_roots(16381, 3)


def check_orbit_against_all_roots(q, t):
    inst = coxeter(q, t, 7)
    f = charpoly(inst.g)
    orbit = dl._eigenvalue_orbit(f, random.Random(1))
    assert len(orbit) == t
    assert all(gf.tau_frob(a) == b for a, b in zip(orbit, orbit[1:]))
    assert sorted(orbit, key=gf.encode_int) == _roots_in_field(f.lift(2 * t), random.Random(2))


@pytest.mark.parametrize("q,t", [(3, 5), (5, 3), (16381, 3)])
def test_trace_split_finds_a_root_for_every_seed(q, t):
    # the root found depends on the random trace; each must be a root
    f = charpoly(coxeter(q, t, 3).g)
    roots = _roots_in_field(f.lift(2 * t), random.Random(0))
    for seed in range(6):
        assert dl._one_root(f, random.Random(seed)) in roots


def one_root_reducing_the_table(f: Poly, rng) -> gf.FieldElem:
    """The trace split with the table x^(p^i) reduced modulo each new
    factor and every trace summed term by term: the route dl._one_root
    replaces, which reduces one trace per try instead.  Both draw the same
    rng values, take the same gcds and keep the same factors."""
    p, level = f.p, f.level
    g = f.monic()
    if g.degree == 1:
        return -g.coeffs[0]
    xs = [Poly.x(p, level).powmod(p**i, g) for i in range(level)]
    while g.degree > 1:
        for _ in range(dl.SPLIT_TRIES):
            a = gf.elem(p, level, [rng.randrange(p) for _ in range(level)])
            conjugates = [a]
            for _ in range(1, level):
                conjugates.append(gf.frob_q(conjugates[-1]))
            trace = linear_combination_by_terms(conjugates, xs)
            h = poly_gcd(trace.powmod((p - 1) // 2, g) - Poly.one(p, level), g)
            if 0 < h.degree < g.degree:
                break
        g = min(h, (g // h).monic(), key=lambda k: k.degree)
        xs = [divmod(x, g)[1] for x in xs]
    return -g.coeffs[0]


@pytest.mark.parametrize("q,t", [(3, 1), (3, 5), (3, 9), (5, 7), (17, 5), (16381, 3)])
def test_one_root_equals_the_route_that_reduces_the_table(q, t):
    f = charpoly(coxeter(q, t, 2).g)
    for seed in range(4):
        fast, slow = random.Random(seed), random.Random(seed)
        assert dl._one_root(f, fast) == one_root_reducing_the_table(f.lift(2 * t), slow)
        assert fast.random() == slow.random()  # the same number of draws


def test_factor_without_roots_ends_the_trace_split():
    # (x^2 - c)(x^3 - x - 1) over F_9, c a non-square: over F_{9^5} both
    # factors stay irreducible, so no try can split their product
    c, one = non_residue(3, 2), gf.one(3, 2)
    f = Poly(3, 2, (-c, gf.zero(3, 2), one)) * Poly(3, 2, (-one, -one, gf.zero(3, 2), one))
    with pytest.raises(CrossCheckError, match=f"degree-5 factor in {dl.SPLIT_TRIES} tries"):
        dl._one_root(f, random.Random(0))


def table_residues(table, level) -> list[Poly]:
    """The x^(p^i) mod f of a Frobenius table over F_{q^2}, lifted to level."""
    p = table[0][0].p
    return [Poly.from_elems(p, level, [gf.embed(row[i], level) for row in table]) for i in range(len(table[0]))]


@pytest.mark.parametrize("q,t", [(3, 5), (7, 3), (16381, 3)])
def test_frobenius_powers_are_the_p_power_residues(q, t):
    # x^(p^i) mod f by the additive step over F_{q^2}, against powmod from
    # the definition at level 2t
    f = charpoly(coxeter(q, t, 0).g)
    g = f.lift(2 * t)
    x = Poly.x(q, 2 * t)
    assert table_residues(dl._frobenius_table(f), 2 * t) == [x.powmod(q**i, g) for i in range(2 * t)]


# the levels at which the table and the gcd of the trace split meet their
# oracles: the dl workload's (3, 14) and (3, 18), and above the cap at q = 31
# and at P_MAX
ORACLE_LEVELS = [(3, 6), (3, 14), (3, 18), (5, 6), (31, 4), (16381, 6)]


@pytest.mark.parametrize("p,level", ORACLE_LEVELS)
def test_frobenius_table_equals_the_level_2t_oracle(p, level):
    # seeded monic f over F_{q^2} of degree t = level / 2, each drawn whole
    # and with a planted factor: the table over F_{q^2}, lifted, is the
    # table the oracle builds at level 2t
    rng = random.Random(f"table:{p}:{level}")
    t = level // 2
    for cut in (0, 1, t // 2):
        f = random_monic(p, 2, t - cut, rng)
        if cut:
            f = f * random_monic(p, 2, cut, rng)
        g = f.lift(level)
        assert table_residues(dl._frobenius_table(f), level) == frobenius_powers(g, Modulus(g))


@pytest.mark.parametrize("q", [3, 17, 31, 16381])
def test_frobenius_table_equals_the_division_oracle(q):
    # degrees from 2 to T_MAX, drawn whole and with a planted factor, one
    # call after another: the long division under the cap (F_9) and
    # Modulus(f).mul above it, against long division on every field
    rng = random.Random(f"division:{q}")
    for t in (2, 3, 4, 5, 8, 9, 14, dl.T_MAX):
        for f in (random_monic(q, 2, t, rng), random_monic(q, 2, t - 1, rng) * random_monic(q, 2, 1, rng)):
            assert dl._frobenius_table(f) == frobenius_table_by_division(f), t


def linear_combination_by_terms(scalars, polys):
    """sum(c * f) with one field product per coefficient, zero scalars skipped."""
    f0 = polys[0]
    acc = [gf.zero(f0.p, f0.level)] * max(len(f.coeffs) for f in polys)
    for c, f in zip(scalars, polys):
        if not c.is_zero:
            for j, b in enumerate(f.coeffs):
                acc[j] = acc[j] + c * b
    return Poly.from_elems(f0.p, f0.level, acc)


@pytest.mark.parametrize("p,level", [(3, 6), (5, 4), (7, 4), (17, 2), (16381, 2), (16381, 6)])
def test_packed_linear_combination_matches_per_term_sum(p, level):
    rng = random.Random(f"combination:{p}:{level}")

    def elem():
        return gf.elem(p, level, [rng.randrange(p) for _ in range(level)])

    def small():
        return gf.elem(p, 2, [rng.randrange(p) for _ in range(2)])

    # the trace of dl._one_root: polynomials over F_{q^2}, given by their
    # coefficient rows, combined with scalars at the level by embedded_apply
    for count in (1, 3, level, 2 * level + 1):
        length = rng.randrange(1, 9)
        polys = [Poly.from_elems(p, 2, [small() for _ in range(length - 1)] + [gf.one(p, 2)]) for _ in range(count)]
        rows = [[f.coeff(k) for f in polys] for k in range(length)]
        lifted = [f.lift(level) for f in polys]
        drawn = [elem() if rng.random() < 0.8 else gf.zero(p, level) for _ in range(count)]
        for scalars in (drawn, drawn[::-1]):
            expected = linear_combination_by_terms(scalars, lifted)
            assert Poly.from_elems(p, level, gf.embedded_apply(rows, scalars)) == expected
            assert combiner(lifted)(scalars) == expected  # the level-2t oracle
    assert gf.embedded_apply([[gf.one(p, 2)]], [gf.zero(p, level)]) == (gf.zero(p, level),)


def test_orbit_shorter_than_degree_is_a_cross_check_failure():
    # two distinct roots already in F_{q^2}: each is its own orbit under tau
    a, b = (gf.elem(3, 2, c) for c in ([1, 0], [0, 1]))
    f = Poly.x_minus(a) * Poly.x_minus(b)
    with pytest.raises(CrossCheckError, match="found 1"):
        dl._eigenvalue_orbit(f, random.Random(0))


def test_orbit_member_that_is_not_a_root_is_a_cross_check_failure(monkeypatch):
    inst = coxeter(3, 3, 1)
    f = charpoly(inst.g)
    tau = gf.tau_frob
    calls = []

    def tau_off_by_one(x):
        # the last member of the orbit mu, tau mu, tau^2 mu is moved off by one
        calls.append(x)
        y = tau(x)
        return y + gf.one(x.p, x.level) if len(calls) == 2 else y

    monkeypatch.setattr(gf, "tau_frob", tau_off_by_one)
    with pytest.raises(CrossCheckError, match="not closed after 3 steps"):
        dl._eigenvalue_orbit(f, random.Random(0))
    assert len(calls) == 3


# ---------------------------------------------------------------------------
# galois transitivity


def test_galois_orbit_t1():
    inst = coxeter(3, 1, 0)
    assert galois_orbit_check(dl_fixed_points(inst.space, inst.g, seed=0))


@pytest.mark.parametrize("q,t", [(3, 3), (5, 3), (3, 5)])
def test_galois_orbit_single_cycle(q, t):
    inst = coxeter(q, t, 4)
    assert galois_orbit_check(dl_fixed_points(inst.space, inst.g, seed=4))


def test_two_frobenius_cycles_fail_orbit_check():
    # record 0 lies on a 3-cycle of the 6 joined records: the walk closes
    # before it has seen them all.  Every Coxeter instance at one (q, t)
    # multiplies by a torus element in one fixed basis, so all share their
    # eigenlines: the second one lives at q = 5
    first, second = (dl_fixed_points(inst.space, inst.g, seed=6) for inst in (coxeter(3, 3, 6), coxeter(5, 3, 6)))
    assert galois_orbit_check(first) and galois_orbit_check(second)
    joined = first + second
    assert len({dl._line_key(rec.vector) for rec in joined}) == 6
    assert not galois_orbit_check(joined)


def test_duplicated_record_fails_orbit_check():
    inst = coxeter(3, 3, 5)
    records = dl_fixed_points(inst.space, inst.g, seed=5)
    assert not galois_orbit_check(records + [records[0]])


def test_no_records_fail_orbit_check():
    assert galois_orbit_check([]) is False


def test_zero_vector_fails_orbit_check():
    zero_line = EigenlineRecord(gf.one(3, 6), (gf.zero(3, 6),) * 3)
    assert galois_orbit_check([zero_line]) is False
    inst = coxeter(3, 3, 5)
    assert galois_orbit_check(dl_fixed_points(inst.space, inst.g, seed=5) + [zero_line]) is False


@pytest.mark.parametrize("q", [3, 5, 17])
@pytest.mark.parametrize("t", [1, 3, 5, 7, 9])
def test_line_keys_equal_the_rref_oracle(q, t):
    # every record and its tau-image has a leading 1; a scaled copy takes
    # the inverse of its leading entry
    inst = coxeter(q, t, 0)
    records = dl_fixed_points(inst.space, inst.g, seed=0)
    assert len(records) == t
    rng = random.Random(f"line-keys:{q}:{t}")
    for rec in records:
        for v in (rec.vector, tuple(gf.tau_frob(c) for c in rec.vector)):
            scale = gf.random_elem(q, 2 * t, rng)
            while scale.is_zero:
                scale = gf.random_elem(q, 2 * t, rng)
            scaled = tuple(scale * c for c in v)
            assert dl._line_key(v) == dl._line_key(scaled) == line_key_by_rref(v) == line_key_by_rref(scaled)


@pytest.mark.slow
def test_count_t7_q3_slow():
    inst = coxeter(3, 7, 0)
    records = dl_fixed_points(inst.space, inst.g, seed=0)
    assert len(records) == 7
    assert galois_orbit_check(records)


# ---------------------------------------------------------------------------
# semisimplicity probe


@dataclass(frozen=True)
class ProbeDiagnosis:
    status: str  # not_semisimple | not_regular | regular_elliptic | regular_split
    fixed_set: str  # empty | infinite | finite
    detail: str
    line_fixed: bool | None = None


def semisimplicity_probe(gram: Matrix, s: Matrix, line: Subspace | None = None) -> ProbeDiagnosis:
    """Classify s by the finiteness dichotomy of its fixed set.

    Non-semisimple elements have empty fixed sets, semisimple non-regular
    ones have infinite fixed sets (a witness eigenspace of excess dimension
    is exhibited), and regular elements split by irreducibility of the
    characteristic polynomial.
    """
    cp = charpoly(s)
    mp = minpoly(s)
    line_fixed = None
    if line is not None:
        image = [s.apply(r) for r in line.rows]
        line_fixed = span(line.ambient, image) == line
    if poly_gcd(mp, mp.derivative()).degree > 0:
        rep = next(f for f, a in plain_factor(mp) if a > 1)
        return ProbeDiagnosis(
            "not_semisimple", "empty",
            f"minimal polynomial has the repeated factor of degree {rep.degree}; "
            "a non-semisimple element fixes nothing",
            line_fixed,
        )
    if mp != cp:
        witness = next(
            (f, kernel_of_poly(s, f).dim)
            for f, _ in plain_factor(mp)
            if kernel_of_poly(s, f).dim > f.degree
        )
        return ProbeDiagnosis(
            "not_regular", "infinite",
            f"eigenspace of dimension {witness[1]} > {witness[0].degree}; "
            "a non-regular semisimple element fixes a positive-dimensional set",
            line_fixed,
        )
    if is_irreducible(cp):
        return ProbeDiagnosis(
            "regular_elliptic", "finite",
            f"irreducible characteristic polynomial; exactly {gram.n} fixed lines",
            line_fixed,
        )
    return ProbeDiagnosis(
        "regular_split", "empty",
        "regular with reducible characteristic polynomial; no eigenline survives the chain",
        line_fixed,
    )


def test_probe_jordan_cube_not_semisimple():
    # unitary Jordan-style element: companion of (T - lambda)^3, lambda norm one
    inst = build_block_instance(parse_signature("sp:1:3"), 3, 1)
    diag = semisimplicity_probe(inst.space, inst.g)
    assert diag.status == "not_semisimple"
    assert diag.fixed_set == "empty"


def test_probe_identity_not_regular():
    space = validate_space(Matrix.identity(3, 2, 3))
    diag = semisimplicity_probe(space, Matrix.identity(3, 2, 3))
    assert diag.status == "not_regular"
    assert diag.fixed_set == "infinite"


def test_probe_regular_elliptic_finite():
    inst = coxeter(3, 3, 6)
    diag = semisimplicity_probe(inst.space, inst.g)
    assert diag.status == "regular_elliptic"
    assert diag.fixed_set == "finite"


def test_probe_regular_split_empty():
    inst = build_block_instance(parse_signature("sp:1:1,sp:1:1,sp:1:1"), 3, 2)
    diag = semisimplicity_probe(inst.space, inst.g)
    assert diag.status == "regular_split"
    assert diag.fixed_set == "empty"


def test_probe_reports_candidate_line():
    inst = coxeter(3, 1, 0)
    line = span(1, [(gf.one(3, 2),)])
    diag = semisimplicity_probe(inst.space, inst.g, line=line)
    assert diag.line_fixed is True
