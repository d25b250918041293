import random
from dataclasses import dataclass

import pytest

from afl_lab import dl, gf
from afl_lab.dl import dl_fixed_points, galois_orbit_check
from afl_lab.errors import CrossCheckError, InputError
from afl_lab.forge import build_block_instance, parse_signature, random_coxeter_instance
from afl_lab.hermitian import HermitianSpace, validate_space
from afl_lab.linalg import Matrix, charpoly
from afl_lab.poly import Modulus, Poly, is_irreducible, plain_factor, poly_gcd
from oracles import Subspace, kernel, kernel_of_poly, matrix_difference, span
from test_linalg import minpoly


def coxeter(q, t, seed):
    return random_coxeter_instance(q, t, seed)


# ---------------------------------------------------------------------------
# counts


def test_t1_single_line():
    inst = coxeter(3, 1, 0)
    records = dl_fixed_points(inst.space, inst.g, seed=0)
    assert len(records) == 1
    # d = 0: the only chain condition is h(l, l) != 0
    assert len(records[0].chain_values) == 1
    assert not records[0].chain_values[0].is_zero


@pytest.mark.parametrize("q,t", [(3, 3), (3, 5), (5, 3)])
def test_count_equals_dimension(q, t):
    inst = coxeter(q, t, 1)
    records = dl_fixed_points(inst.space, inst.g, seed=1)
    assert len(records) == t
    d = (t - 1) // 2
    for rec in records:
        assert all(c.is_zero for c in rec.chain_values[:d])
        assert not rec.chain_values[d].is_zero


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

    gram_big = Matrix.from_rows(3, 6, [[gf.embed(a, 6) for a in row] for row in inst.space.gram.rows])
    for rec in records:
        x = rec.vector
        y = records[0].vector
        tx = tuple(gf.tau_frob(c) for c in x)
        ty = tuple(gf.tau_frob(c) for c in y)
        assert _sesquilinear(gram_big, tx, ty) == gf.tau_frob(_sesquilinear(gram_big, x, y))


@pytest.mark.parametrize("q,t,seed", [(3, 1, 0), (3, 3, 1), (3, 5, 2), (5, 5, 3), (7, 3, 4), (3, 7, 5)])
def test_chain_values_equal_the_definition(q, t, seed):
    # every record's chain h(v, tau^i v), i = 0..d, from the form itself
    inst = coxeter(q, t, seed)
    records = dl_fixed_points(inst.space, inst.g, seed=seed)
    gram_big = _big(inst.space.gram, 2 * t)
    assert len(records) == t
    for rec in records:
        image = rec.vector
        for value in rec.chain_values:
            assert value == _sesquilinear(gram_big, rec.vector, image)
            image = tuple(gf.tau_frob(c) for c in image)


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
    f = charpoly(inst.g).lift(2 * t)
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


def test_vanishing_krylov_combination_is_a_cross_check_failure():
    # s = I with f = (x - 1)^3: 1 is a root, but h = (x - 1)^2 kills e_1
    s = Matrix.identity(3, 2, 3)
    f = charpoly(s).lift(6)
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
    linear_part = poly_gcd(x.powmod(q_size, f) - (x % f), f)
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
    f = charpoly(inst.g).lift(2 * t)
    orbit = dl._eigenvalue_orbit(f, random.Random(1))
    assert len(orbit) == t
    assert all(gf.tau_frob(a) == b for a, b in zip(orbit, orbit[1:]))
    assert sorted(orbit, key=gf.encode_int) == _roots_in_field(f, random.Random(2))


@pytest.mark.parametrize("q,t", [(3, 5), (5, 3), (16381, 3)])
def test_trace_split_finds_a_root_for_every_seed(q, t):
    # the root found depends on the random trace; each must be a root
    f = charpoly(coxeter(q, t, 3).g).lift(2 * t)
    roots = _roots_in_field(f, random.Random(0))
    for seed in range(6):
        assert dl._one_root(f, random.Random(seed)) in roots


def test_factor_without_roots_ends_the_trace_split():
    # x^2 - c, c a non-square of F_{3^6}: no try can split it
    c = gf._non_residue(3, 6)
    f = Poly(3, 6, (-c, gf.zero(3, 6), gf.one(3, 6)))
    with pytest.raises(CrossCheckError, match=f"degree-2 factor in {dl.SPLIT_TRIES} tries"):
        dl._one_root(f, random.Random(0))


@pytest.mark.parametrize("q,t", [(3, 5), (7, 3), (16381, 3)])
def test_frobenius_powers_are_the_p_power_residues(q, t):
    # x^(p^i) mod g by the additive step, against powmod from the definition
    g = charpoly(coxeter(q, t, 0).g).lift(2 * t)
    x = Poly.x(q, 2 * t)
    assert dl._frobenius_powers(g, Modulus(g)) == [x.powmod(q**i, g) for i in range(2 * t)]


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

    for count in (1, 3, level, 2 * level + 1):
        polys = [Poly.from_elems(p, level, [elem() for _ in range(rng.randrange(1, 9))]) for _ in range(count)]
        scalars = [elem() if rng.random() < 0.8 else gf.zero(p, level) for _ in range(count)]
        assert dl._linear_combination(scalars, polys) == linear_combination_by_terms(scalars, polys)
    assert dl._linear_combination([gf.zero(p, level)], polys[:1]) == Poly.zero(p, level)


def test_orbit_shorter_than_degree_is_a_cross_check_failure():
    # two distinct roots already in F_{q^2}: each is its own orbit under tau
    a, b = (gf.embed(gf.elem(3, 2, c), 6) for c in ([1, 0], [0, 1]))
    f = Poly.x_minus(a) * Poly.x_minus(b)
    with pytest.raises(CrossCheckError, match="found 1"):
        dl._eigenvalue_orbit(f, random.Random(0))


def test_orbit_member_that_is_not_a_root_is_a_cross_check_failure(monkeypatch):
    inst = coxeter(3, 3, 1)
    f = charpoly(inst.g).lift(6)
    tau = gf.tau_frob
    calls = []

    def tau_off_by_one(x):
        # the last member of the orbit mu, tau mu, tau^2 mu is moved off by one
        calls.append(x)
        y = tau(x)
        return y + gf.one(x.p, x.level) if len(calls) == 2 else y

    monkeypatch.setattr(gf, "tau_frob", tau_off_by_one)
    with pytest.raises(CrossCheckError, match="not a root"):
        dl._eigenvalue_orbit(f, random.Random(0))
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# galois transitivity


def test_galois_orbit_t1():
    inst = coxeter(3, 1, 0)
    assert galois_orbit_check(dl_fixed_points(inst.space, inst.g, seed=0))


@pytest.mark.parametrize("q,t", [(3, 3), (5, 3), (3, 5)])
def test_galois_orbit_single_cycle(q, t):
    inst = coxeter(q, t, 4)
    assert galois_orbit_check(dl_fixed_points(inst.space, inst.g, seed=4))


def test_duplicated_record_fails_orbit_check():
    inst = coxeter(3, 3, 5)
    records = dl_fixed_points(inst.space, inst.g, seed=5)
    assert not galois_orbit_check(records + [records[0]])


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


def semisimplicity_probe(space: HermitianSpace, s: Matrix, line: Subspace | None = None, seed=0) -> ProbeDiagnosis:
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
        rep = next(f for f, a in plain_factor(mp, seed) if a > 1)
        return ProbeDiagnosis(
            "not_semisimple", "empty",
            f"minimal polynomial has the repeated factor of degree {rep.degree}; "
            "a non-semisimple element fixes nothing",
            line_fixed,
        )
    if mp != cp:
        witness = next(
            (f, kernel_of_poly(s, f).dim)
            for f, _ in plain_factor(mp, seed)
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
            f"irreducible characteristic polynomial; exactly {space.dim} fixed lines",
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
