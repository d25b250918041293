import itertools
import json
import random
from collections import Counter

import pytest

from afl_lab import cli, forge, gf
from afl_lab.cli import DEFAULT_SIGNATURES
from afl_lab.errors import CrossCheckError, ForgeError, InputError, InvariantError
from afl_lab.forge import (
    BlockSpec,
    build_block_instance,
    certify_instance,
    instance_from_spec,
    irreducible_supply,
    parse_instance,
    parse_signature,
    random_coxeter_instance,
    serialize_instance,
    signature_dim,
)
from afl_lab.hermitian import AntiInvolution, HermitianSpace
from afl_lab.linalg import Matrix, null_basis
from afl_lab.poly import Poly, is_irreducible, star
from oracles import divisor_poly, kernel_of_poly, matrix_difference, tau_map, transform_subspace
from test_linalg import det


# ---------------------------------------------------------------------------
# signature parsing


def test_parse_signature_roundtrip():
    sig = parse_signature("cp:1:2,sp:1:1")
    assert [b.kind for b in sig] == ["cp", "sp"]
    assert signature_dim(sig) == 5


def test_parse_signature_rejects_even_self_paired():
    with pytest.raises(InputError):
        parse_signature("sp:2:1")


def test_parse_signature_rejects_garbage():
    with pytest.raises(InputError):
        parse_signature("xx:1:1")
    with pytest.raises(InputError):
        parse_signature("sp:0:1")


# ---------------------------------------------------------------------------
# block builder


def test_dim1_instance_is_the_unit_example():
    sig = (BlockSpec("sp", 1, 1, Poly.x_minus(gf.one(3, 2))),)
    inst = build_block_instance(sig, 3, 0)
    assert inst.g.to_json() == [[[1, 0]]]
    assert inst.space.gram.to_json() == [[[1, 0]]]
    assert inst.tau.mat.to_json() == [[[1, 0]]]


def test_cp_dim2_realizes_conjugate_inverse_pair():
    c = gf.one(3, 2) + gf.gen(3, 2)
    sig = (BlockSpec("cp", 1, 1, Poly.x_minus(c)),)
    inst = build_block_instance(sig, 3, 0)
    z = gf.zero(3, 2)
    expected = Matrix.from_rows(3, 2, [[c, z], [z, gf.conj(c).inverse()]])
    assert inst.g == expected
    # the two eigenlines of a hyperbolic pair are isotropic
    from afl_lab.hermitian import is_isotropic

    for vec in ((gf.one(3, 2), z), (z, gf.one(3, 2))):
        assert is_isotropic([vec], inst.space)


def test_random_self_paired_cubic():
    inst = build_block_instance(parse_signature("sp:3:1"), 3, 11)
    assert inst.n == 3
    assert len(inst.fact.factors) == 1
    f, a = inst.fact.factors[0]
    assert a == 1 and f.degree == 3 and star(f) == f


@pytest.mark.parametrize("sig,kind,degree", [
    ("sp:3:1", "self-paired", 3),
    ("cp:1:1,sp:1:1", "non-self-paired", 1),
])
def test_block_samplers_give_up_after_generator_tries(sig, kind, degree, monkeypatch):
    # a minimal-polynomial routine that never succeeds (as a broken Frobenius
    # makes it) ends the sampler in a named ForgeError instead of a hang
    calls = []

    def never(z):
        calls.append(z)

    monkeypatch.setattr(forge, "_min_poly_over_quadratic", never)
    with pytest.raises(ForgeError, match=rf"{kind} irreducible of degree {degree} over F_9 \(q = 3\)"):
        build_block_instance(parse_signature(sig), 3, 11)
    assert 0 < len(calls) <= forge.GENERATOR_TRIES


@pytest.mark.parametrize("walk", ["_min_poly_over_quadratic", "_witness_degree"])
@pytest.mark.parametrize("level", [2, 6])
def test_tau_orbit_walks_stop_after_d_steps(walk, level, monkeypatch):
    # a tau_frob that sends everything to one other element never returns
    # to z; the walk stops after d = level / 2 images instead of hanging
    z, other = gf.gen(3, level), gf.one(3, level)
    images = []

    def stuck(x):
        images.append(x)
        return other

    monkeypatch.setattr(gf, "tau_frob", stuck)
    with pytest.raises(CrossCheckError, match=f"level-{level} element is not closed after {level // 2} steps"):
        getattr(forge, walk)(z)
    assert len(images) == level // 2


def test_rejects_impossible_random_type():
    with pytest.raises(InputError):
        build_block_instance((BlockSpec("sp", 2, 1),), 3, 0)


@pytest.mark.parametrize("q,degree,sp,pairs", [
    (3, 1, 4, 2), (3, 2, 0, 18), (3, 3, 8, 116), (5, 1, 6, 9), (5, 2, 0, 150),
])
def test_irreducible_supply_matches_enumeration(q, degree, sp, pairs):
    # brute force: every monic degree-d polynomial over F_{q^2} with a
    # nonzero constant term, sorted into self-paired and paired irreducibles
    elems = [gf.elem_from_encoding(q, 2, c) for c in range(q * q)]
    self_paired = paired = 0
    for low in itertools.product(elems, repeat=degree):
        if low[0].is_zero:
            continue
        f = Poly.from_elems(q, 2, list(low) + [gf.one(q, 2)])
        if is_irreducible(f):
            if star(f) == f:
                self_paired += 1
            else:
                paired += 1
    assert (self_paired, paired // 2) == (sp, pairs)
    assert irreducible_supply(q, "sp", degree) == sp
    assert irreducible_supply(q, "cp", degree) == pairs


@pytest.mark.parametrize("sig,q,message", [
    ("cp:1:1,cp:1:1,cp:1:1,sp:1:1", 3, "needs 3 cp blocks of degree 1, but F_9 has only 2"),
    ("sp:1:1,sp:1:1,sp:1:1,sp:1:1,sp:1:1", 3, "needs 5 sp blocks of degree 1, but F_9 has only 4"),
    (",".join(["sp:3:1"] + ["cp:1:1"] * 10), 5, "needs 10 cp blocks of degree 1, but F_25 has only 9"),
])
def test_unrealizable_signature_is_named_before_sampling(sig, q, message):
    with pytest.raises(InputError, match=message):
        build_block_instance(parse_signature(sig), q, 0)


def test_rejects_duplicate_explicit_polys():
    one = gf.one(3, 2)
    sig = (BlockSpec("sp", 1, 1, Poly.x_minus(one)), BlockSpec("sp", 1, 1, Poly.x_minus(one)))
    with pytest.raises(InputError):
        build_block_instance(sig, 3, 0)


def test_rejects_non_prime_q():
    with pytest.raises(InputError):
        build_block_instance(parse_signature("sp:1:1"), 4, 0)


def test_signature_matches_factorization():
    for sig_text, q, seed in [("cp:1:2,sp:1:1", 3, 7), ("cp:2:1,sp:1:1", 5, 3), ("sp:1:5", 5, 1)]:
        inst = build_block_instance(parse_signature(sig_text), q, seed)
        shape = sorted((f.degree, a) for f, a in inst.fact.factors)
        expected = []
        for b in parse_signature(sig_text):
            expected.append((b.degree, b.exponent))
            if b.kind == "cp":
                expected.append((b.degree, b.exponent))
        assert shape == sorted(expected)


def test_same_seed_reproduces_bit_exactly():
    a = serialize_instance(build_block_instance(parse_signature("cp:1:2,sp:1:1"), 5, 42))
    b = serialize_instance(build_block_instance(parse_signature("cp:1:2,sp:1:1"), 5, 42))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_tau_maps_kernels_across_pairing():
    inst = build_block_instance(parse_signature("cp:1:2,sp:1:1"), 3, 13)
    fact = inst.fact
    for i, (f, a) in enumerate(fact.factors):
        j = fact.pairing[i]
        for m in range(a + 1):
            src = kernel_of_poly(inst.g, divisor_poly(fact, tuple(m if k == i else 0 for k in range(len(fact.factors)))))
            dst = kernel_of_poly(inst.g, divisor_poly(fact, tuple(m if k == j else 0 for k in range(len(fact.factors)))))
            assert transform_subspace(src, tau_map(inst.tau)) == dst


# ---------------------------------------------------------------------------
# coxeter builder


def test_coxeter_n1():
    inst = random_coxeter_instance(3, 1, 0)
    lam = inst.g.rows[0][0]
    assert gf.encode_int(lam ** (3 + 1)) == 1


def test_coxeter_n3_and_norm_one_count():
    inst = random_coxeter_instance(3, 3, 1)
    assert inst.n == 3
    f, a = inst.fact.factors[0]
    assert a == 1 and f.degree == 3 and star(f) == f
    # oracle: the norm-one subgroup of F_{3^6}^x has q^3 + 1 = 28 elements
    count = sum(
        1
        for k in range(1, 3**6)
        if gf.encode_int(gf.elem_from_encoding(3, 6, k) ** 28) == 1
    )
    assert count == 28


def trace_by_orbit_sum(z):
    """Trace of F_{q^{2n}} down to F_{q^2} by its definition: the tau-orbit sum."""
    acc = cur = z
    for _ in range(z.level // 2 - 1):
        cur = gf.tau_frob(cur)
        acc = acc + cur
    return acc


@pytest.mark.parametrize("q,n,seed", [(3, 1, 0), (3, 3, 1), (3, 5, 2), (5, 3, 3), (7, 5, 4), (3, 7, 5)])
def test_coxeter_gram_equals_the_definition(q, n, seed):
    # G[i][j] = Tr(b^i (b^j)^(q^n)) down to F_{q^2}, b the level-2n generator
    inst = random_coxeter_instance(q, n, seed)
    b = gf.gen(q, 2 * n)
    powers = [b**j for j in range(n)]
    expected = [[gf.descend(trace_by_orbit_sum(ba * (bb ** (q**n)))) for bb in powers] for ba in powers]
    assert [list(row) for row in inst.space.gram.rows] == expected


def test_coxeter_rejects_even_n():
    with pytest.raises(InputError):
        random_coxeter_instance(3, 2, 0)


def test_coxeter_exhausted_attempts_names_the_witness_degree(monkeypatch):
    # y = 1 gives s = 1, whose minimal polynomial over F_{q^2} has degree 1
    monkeypatch.setattr(forge, "_random_elem", lambda p, level, rng: gf.one(p, level))
    with pytest.raises(ForgeError, match="exhausted attempts.*minimal polynomial of degree 1 < 3"):
        random_coxeter_instance(3, 3, 1)


# ---------------------------------------------------------------------------
# the Gram solve


def gram_unknowns_by_definition(n):
    """Every F_p coordinate of a conjugate-symmetric G as its own unknown, in
    slot order: one per diagonal entry (forced into F_p), then two per strict
    upper entry in row-major order."""
    slots = [("diag", i, i, 0) for i in range(n)]
    slots += [("off", i, j, comp) for i in range(n) for j in range(i + 1, n) for comp in (0, 1)]
    return slots


def unpack_slots(values, slots, p, n):
    z = gf.zero(p, 2)
    rows = [[z] * n for _ in range(n)]
    for val, (kind, i, j, comp) in zip(values, slots):
        if not val:
            continue
        if kind == "diag":
            rows[i][i] = rows[i][i] + gf.elem(p, 2, [val, 0])
        else:
            e = gf.elem(p, 2, [val, 0] if comp == 0 else [0, val])
            rows[i][j] = rows[i][j] + e
            rows[j][i] = rows[j][i] + gf.conj(e)
    return Matrix.from_rows(p, 2, rows)


def gram_solve_by_definition(g, s, seed, label):
    """The Gram solve on all n^2 F_p coordinates of G: for each coordinate's
    unit Gram matrix E, every entry of g^T E conj(g) - E and of
    S^T E conj(S) - conj(E) by full matrix products, the free-column null
    basis of that system, and the GRAM_TRIES seeded candidates drawn up
    front, as Gram matrices."""
    p, n = g.p, g.n
    slots = gram_unknowns_by_definition(n)
    gt, gbar, st, sbar = g.transpose(), g.conj(), s.transpose(), s.conj()
    columns = []
    for idx in range(len(slots)):
        e = unpack_slots([int(k == idx) for k in range(len(slots))], slots, p, n)
        col = []
        for mat in (matrix_difference(gt @ e @ gbar, e), matrix_difference(st @ e @ sbar, e.conj())):
            col.extend(c for row in mat.rows for x in row for c in x.coeffs)
        columns.append(col)
    system = Matrix.from_rows(p, 1, [[gf.from_base(p, 1, c) for c in row] for row in zip(*columns)])
    basis = [[gf.encode_int(a) for a in v] for v in null_basis(system)]
    rng = random.Random(f"gram:{p}:{label}:{seed}")
    candidates = list(basis)
    for _ in range(forge.GRAM_TRIES - len(candidates)):
        combo = [0] * len(slots)
        for vec in basis:
            c = rng.randrange(p)
            if c:
                combo = [(a + c * b) % p for a, b in zip(combo, vec)]
        candidates.append(combo)
    return [unpack_slots(v, slots, p, n) for v in candidates[: forge.GRAM_TRIES]]


def block_system(spec, q, seed):
    """g, S and the pairing layout exactly as build_block_instance makes them."""
    sig = parse_signature(spec)
    label = ",".join(b.spec_string() for b in sig)
    polys = forge._resolve_polys(sig, q, random.Random(f"forge:{q}:{label}:{seed}"))
    return (*forge._assemble_blocks(sig, polys), label)


def random_signature(rng, q):
    """Three or four blocks of dimension at most 9 that F_{q^2} can realize."""
    choices = ["sp:1:1", "sp:1:2", "sp:1:3", "sp:3:1", "cp:1:1", "cp:1:2", "cp:2:1"]
    while True:
        sig = parse_signature(",".join(rng.choice(choices) for _ in range(rng.choice((3, 4)))))
        counts = Counter((b.kind, b.degree) for b in sig)
        if signature_dim(sig) <= 9 and all(k <= irreducible_supply(q, *kd) for kd, k in counts.items()):
            return ",".join(b.spec_string() for b in sig)


RANDOM_SIGNATURES = [
    (random_signature(random.Random(f"sig:{q}:{i}"), q), q, i) for q in (3, 5, 7, 17, 31) for i in range(3)
]


@pytest.mark.parametrize(
    "spec,q,seed",
    [(spec, q, seed) for q in (3, 5, 7, 17, 31) for spec in DEFAULT_SIGNATURES for seed in (0, 1)]
    + RANDOM_SIGNATURES,
)
def test_gram_candidates_equal_the_solve_by_definition(spec, q, seed):
    g, s, pairs, label = block_system(spec, q, seed)
    p, n = g.p, g.n
    unknowns, basis = forge._gram_basis(g, pairs)
    got = [forge._unpack_gram(v, unknowns, p, n) for v in forge._gram_candidates(basis, p, seed, label)]
    assert got == gram_solve_by_definition(g, s, seed, label)


def test_random_signatures_have_three_blocks_or_more():
    assert all(len(parse_signature(spec)) >= 3 for spec, _, _ in RANDOM_SIGNATURES)
    assert len({spec for spec, _, _ in RANDOM_SIGNATURES}) > 6


@pytest.mark.parametrize(
    "spec,q,seed",
    [("cp:1:1,sp:1:1", 3, 2), ("cp:1:2,sp:1:1", 3, 0), ("cp:1:1,sp:1:3", 5, 2), ("sp:1:1,sp:1:1,sp:1:1", 3, 1)],
)
def test_gram_solve_keeps_the_first_candidate_with_nonzero_det(spec, q, seed, monkeypatch):
    candidates = []
    drawn = []
    unpack, draw = forge._unpack_gram, forge._gram_candidates

    def recording(*args):
        candidates.append(unpack(*args))
        return candidates[-1]

    def counting(*args):
        for values in draw(*args):
            drawn.append(values)
            yield values

    monkeypatch.setattr(forge, "_unpack_gram", recording)
    monkeypatch.setattr(forge, "_gram_candidates", counting)
    inst = instance_from_spec(spec, q, seed)
    assert len(candidates) > 1 and inst.space.gram == candidates[-1]
    assert [det(gm).is_zero for gm in candidates] == [True] * (len(candidates) - 1) + [False]
    # candidates are drawn only up to the first of full rank
    assert len(drawn) == len(candidates) < forge.GRAM_TRIES


def test_sp_1_1_has_no_equation_and_one_free_unknown():
    g, _, pairs, _ = block_system("sp:1:1", 3, 0)
    unknowns, basis = forge._gram_basis(g, pairs)
    assert forge._gram_columns(g, unknowns) == [{}]
    assert basis == [[1]]


def without_the_cp_pair(pairs):
    return [pr for pr in pairs if pr[0] == pr[2]]


def cp_pair_as_self_paired(pairs):
    out = []
    for off_a, size_a, off_b, size_b in pairs:
        out.append((off_a, size_a, off_a, size_a))
        if off_a != off_b:
            out.append((off_b, size_b, off_b, size_b))
    return out


# each signature has one cp pair
@pytest.mark.parametrize("wrong", [without_the_cp_pair, cp_pair_as_self_paired], ids=["dropped", "self_paired"])
@pytest.mark.parametrize("spec,q,seed", [("cp:1:1,sp:1:1", 3, 0), ("cp:1:2,sp:1:1", 5, 1), ("cp:2:1,sp:1:3", 3, 2)])
def test_wrong_pairing_layout_fails_loudly(wrong, spec, q, seed, monkeypatch):
    assemble = forge._assemble_blocks

    def wrong_layout(*args):
        g, s, pairs = assemble(*args)
        return g, s, wrong(pairs)

    monkeypatch.setattr(forge, "_assemble_blocks", wrong_layout)
    with pytest.raises((ForgeError, InvariantError)):
        instance_from_spec(spec, q, seed)


def gram_error(argv, capsys):
    assert cli.main(argv) == 2
    return json.loads(capsys.readouterr().err)


def test_trivial_gram_solution_space_names_q_spec_and_seed(capsys, monkeypatch):
    monkeypatch.setattr(forge, "null_basis", lambda system: [])
    err = gram_error(["verify", "--q", "5", "--sig", "cp:1:1,sp:1:1", "--seed", "17"], capsys)
    assert err["error"] == "ForgeError" and "solution space is trivial" in err["message"]
    assert "cp:1:1,sp:1:1 at q = 5, seed 17" in err["message"]


def test_no_nondegenerate_gram_within_the_tries_names_q_spec_and_seed(capsys, monkeypatch):
    monkeypatch.setattr(forge, "rref", lambda rows: ((), ()))  # no candidate is of full rank
    err = gram_error(["verify", "--q", "3", "--sig", "sp:1:3", "--seed", "4"], capsys)
    assert err["error"] == "ForgeError"
    assert f"no nondegenerate Gram matrix found for sp:1:3 at q = 3, seed 4 within {forge.GRAM_TRIES} tries" in err["message"]


# ---------------------------------------------------------------------------
# serialization round trip


@pytest.mark.parametrize("spec,q", [("sp:1:1", 3), ("cp:1:2,sp:1:1", 3), ("coxeter:3", 5)])
def test_round_trip(spec, q):
    inst = instance_from_spec(spec, q, 8)
    data = serialize_instance(inst)
    again = parse_instance(json.loads(json.dumps(data)))
    assert serialize_instance(again) == data


def test_tampered_gram_is_named_error():
    data = serialize_instance(instance_from_spec("cp:1:1,sp:1:1", 3, 8))
    orig = data["gram"][0][1]
    data["gram"][0][1] = [(orig[0] + 1) % 3, orig[1]]
    with pytest.raises(InvariantError, match="conjugate-symmetric"):
        parse_instance(data)


def test_tampered_g_breaks_unitarity():
    data = serialize_instance(instance_from_spec("sp:1:3", 3, 8))
    orig = data["g"][0][0]
    data["g"][0][0] = [(orig[0] + 1) % 3, orig[1]]
    with pytest.raises(InvariantError):
        parse_instance(data)


def test_truncated_file_is_schema_error():
    data = serialize_instance(instance_from_spec("sp:1:1", 3, 8))
    del data["tau"]
    with pytest.raises(InputError, match="schema"):
        parse_instance(data)


def test_wrong_poly2_is_schema_error():
    data = serialize_instance(instance_from_spec("sp:1:1", 3, 8))
    data["field"]["poly2"] = [2, 0, 1]
    with pytest.raises(InputError, match="poly2"):
        parse_instance(data)


def test_certify_passes_on_fresh_instances():
    for spec, q in [("sp:1:3", 3), ("coxeter:3", 3), ("cp:2:1,sp:1:1", 5)]:
        inst = instance_from_spec(spec, q, 3)
        assert certify_instance(inst.space, inst.g, inst.tau, inst.seed) == inst.fact


def test_certify_rejects_unitary_non_scalar_non_regular_g():
    # diag(1, 1, -1) is unitary for the identity form; its eigenvalue 1 has a
    # 2-dimensional eigenspace, so dim ker(g - 1) exceeds deg(T - 1)
    one, z = gf.one(3, 2), gf.zero(3, 2)
    g = Matrix.from_rows(3, 2, [[one, z, z], [z, one, z], [z, z, -one]])
    ident = Matrix.identity(3, 2, 3)
    with pytest.raises(InvariantError, match="g is not regular"):
        certify_instance(HermitianSpace(ident), g, AntiInvolution(ident), 0)


def test_parse_rejects_p_above_the_bound():
    data = serialize_instance(instance_from_spec("sp:1:1", 3, 8))
    data["p"] = 16411  # the least prime above gf.P_MAX
    with pytest.raises(InputError, match=f"schema: p must be at most {gf.P_MAX}"):
        parse_instance(data)


def test_parse_rejects_n_above_the_bound():
    data = serialize_instance(instance_from_spec("sp:1:1", 3, 8))
    data["n"] = forge.N_MAX + 1
    with pytest.raises(InputError, match=f"schema: n must be at most {forge.N_MAX}"):
        parse_instance(data)
    # at the bound the check passes and the 1 x 1 matrices fail the schema
    data["n"] = forge.N_MAX
    with pytest.raises(InputError, match=f"gram must be a {forge.N_MAX}x{forge.N_MAX} matrix"):
        parse_instance(data)


def test_parse_signature_bounds_the_dimension():
    assert signature_dim(parse_signature(f"cp:1:2,sp:1:{forge.N_MAX - 4}")) == forge.N_MAX
    with pytest.raises(InputError, match=f"signature dimension must be at most {forge.N_MAX}, got {forge.N_MAX + 1}"):
        parse_signature(f"cp:1:2,sp:1:{forge.N_MAX - 3}")


def _zero_matrix(n):
    return Matrix.from_rows(3, 2, [[gf.zero(3, 2)] * n for _ in range(n)])


@pytest.mark.parametrize(
    "part,broken,axiom",
    [
        ("gram", _zero_matrix, "gram is degenerate"),
        ("g", _zero_matrix, "g is not unitary"),
        ("g", lambda n: Matrix.identity(3, 2, n), "g is not regular"),
        ("tau", _zero_matrix, "anti-involution is not involutive"),
    ],
    ids=["degenerate_gram", "non_unitary_g", "non_regular_g", "tau_not_anti_involution"],
)
def test_every_certifier_check_can_fail(part, broken, axiom):
    # each broken part passes every check before the one it targets
    inst = instance_from_spec("sp:1:3", 3, 8)
    bad = broken(inst.n)
    parts = {"gram": inst.space.gram, "g": inst.g, "tau": inst.tau.mat, part: bad}
    with pytest.raises(InvariantError, match=axiom):
        certify_instance(HermitianSpace(parts["gram"]), parts["g"], AntiInvolution(parts["tau"]), inst.seed)
    data = serialize_instance(inst)
    data[part] = bad.to_json()
    with pytest.raises(InvariantError, match=axiom):
        parse_instance(data)
