from dataclasses import dataclass

import pytest

from afl_lab import gf
from afl_lab.dl import dl_fixed_points, galois_orbit_check
from afl_lab.errors import InputError
from afl_lab.forge import build_block_instance, parse_signature, random_coxeter_instance
from afl_lab.hermitian import HermitianSpace, validate_space
from afl_lab.linalg import Matrix, Subspace, charpoly, kernel_of_poly, span
from afl_lab.poly import is_irreducible, plain_factor, poly_gcd
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


def test_chain_semilinearity():
    # h(tau x, tau y) = tau(h(x, y))
    inst = coxeter(3, 3, 3)
    records = dl_fixed_points(inst.space, inst.g, seed=3)
    from afl_lab.dl import _sesquilinear

    gram_big = Matrix.from_rows(3, 6, [[gf.embed(a, 6) for a in row] for row in inst.space.gram.rows])
    for rec in records:
        x = rec.vector
        y = records[0].vector
        tx = tuple(gf.tau_frob(c) for c in x)
        ty = tuple(gf.tau_frob(c) for c in y)
        assert _sesquilinear(gram_big, tx, ty) == gf.tau_frob(_sesquilinear(gram_big, x, y))


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
