import copy
import itertools
import json
import pickle
import random
from collections import Counter

import pytest

from afl_lab import cli, forge, gf
from afl_lab.cli import DEFAULT_SIGNATURES
from afl_lab.errors import CrossCheckError, ForgeError, InputError, InvariantError
from afl_lab.forge import (
    BlockSpec,
    MinusculeInstance,
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
from afl_lab.hermitian import is_isotropic
from afl_lab.linalg import Matrix, charpoly, null_basis
from afl_lab.poly import FactoredPoly, Poly, certify_factorization, factor, is_irreducible, power_product, star
from oracles import (
    coxeter_frame_by_entries,
    divisor_poly,
    inverse_t_powers_by_division,
    kernel_of_poly,
    matrix_difference,
    tau_map,
    transform_subspace,
)
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
    inst = build_block_instance(parse_signature("sp:1:1"), 3, 0)
    ((f, a),) = inst.fact.factors
    c = -f.coeffs[0]  # the root of the drawn T - c
    assert a == 1 and f == Poly.x_minus(c) and c * gf.conj(c) == gf.one(3, 2)
    assert inst.g == Matrix.from_rows(3, 2, [[c]])
    assert inst.space.to_json() == [[[1, 0]]]
    assert inst.tau.to_json() == [[[1, 0]]]


def test_cp_dim2_realizes_conjugate_inverse_pair():
    inst = build_block_instance(parse_signature("cp:1:1"), 3, 0)
    (f, a), (f_star, b) = inst.fact.factors
    assert a == b == 1 and f.degree == f_star.degree == 1 and star(f) == f_star != f
    c = inst.g.rows[0][0]  # the root of the drawn polynomial, on the first block
    assert {c} < {-f.coeffs[0], -f_star.coeffs[0]}
    z = gf.zero(3, 2)
    assert inst.g == Matrix.from_rows(3, 2, [[c, z], [z, gf.conj(c).inverse()]])
    # the two eigenlines of a hyperbolic pair are isotropic
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


@pytest.mark.parametrize("walk", [
    pytest.param(forge._min_poly_over_quadratic, id="_min_poly_over_quadratic"),
    # the Coxeter sampler's witness degree is the length of this walk
    pytest.param(gf.tau_orbit, id="_witness_degree"),
])
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
        walk(z)
    assert len(images) == level // 2


def test_rejects_impossible_random_type():
    with pytest.raises(InputError):
        build_block_instance((BlockSpec("sp", 2, 1),), 3, 0)


# (q, degree, self-paired irreducibles, conjugate pairs) over F_{q^2}, each
# checked by brute force below; the signature census predicts its refusals
# from this table
ENUMERATED_SUPPLY = [(3, 1, 4, 2), (3, 2, 0, 18), (3, 3, 8, 116), (5, 1, 6, 9), (5, 2, 0, 150)]


@pytest.mark.parametrize("q,degree,sp,pairs", ENUMERATED_SUPPLY)
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


# (q, odd degree, self-paired irreducibles) over F_{q^2}, where enumerating
# every monic polynomial would be too slow
ENUMERATED_SELF_PAIRED = [(5, 3, 40)]


@pytest.mark.parametrize("q,degree,sp", ENUMERATED_SELF_PAIRED)
def test_self_paired_supply_matches_enumeration(q, degree, sp):
    # brute force over the star-fixed monic polynomials only: a_0 of norm
    # one, a_1 .. a_{(d-1)/2} free, and a_{d-i} = conj(a_i) / conj(a_0)
    elems = [gf.elem_from_encoding(q, 2, c) for c in range(q * q)]
    norm_one = [c for c in elems if not c.is_zero and c * gf.conj(c) == gf.one(q, 2)]
    count = 0
    for a0 in norm_one:
        for low in itertools.product(elems, repeat=degree // 2):
            coeffs = [a0, *low]
            coeffs += [gf.conj(c) * gf.conj(a0).inverse() for c in reversed(coeffs[1:])] + [gf.one(q, 2)]
            f = Poly.from_elems(q, 2, coeffs)
            assert star(f) == f
            count += is_irreducible(f)
    assert count == sp == irreducible_supply(q, "sp", degree)


@pytest.mark.parametrize("q", [3, 5, 7, 31, 16381])
def test_irreducible_supply_satisfies_gauss_identities(q):
    # x^(Q^m) - x is the product of the monic irreducibles over F_Q of degree
    # d | m, Q = q^2, and x^(q^m + 1) - 1 over the self-paired ones for odd m:
    # this reaches mu at composite and square-divisible degrees, past the
    # enumerated table
    for m in range(1, 13):
        divisors = [d for d in range(1, m + 1) if m % d == 0]
        supply = {d: (irreducible_supply(q, "cp", d), irreducible_supply(q, "sp", d)) for d in divisors}
        assert sum(d * (2 * cp + sp + (d == 1)) for d, (cp, sp) in supply.items()) == q ** (2 * m), m
        if m % 2:
            assert sum(d * sp for d, (_, sp) in supply.items()) == q**m + 1, m


@pytest.mark.parametrize("sig,q,message", [
    ("cp:1:1,cp:1:1,cp:1:1,sp:1:1", 3, "needs 3 cp blocks of degree 1, but F_9 has only 2"),
    ("sp:1:1,sp:1:1,sp:1:1,sp:1:1,sp:1:1", 3, "needs 5 sp blocks of degree 1, but F_9 has only 4"),
    (",".join(["sp:3:1"] + ["cp:1:1"] * 10), 5, "needs 10 cp blocks of degree 1, but F_25 has only 9"),
])
def test_unrealizable_signature_is_named_before_sampling(sig, q, message):
    with pytest.raises(InputError, match=message):
        build_block_instance(parse_signature(sig), q, 0)


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
            src = kernel_of_poly(inst.g, divisor_poly(fact.factors, tuple(m if k == i else 0 for k in range(len(fact.factors)))))
            dst = kernel_of_poly(inst.g, divisor_poly(fact.factors, tuple(m if k == j else 0 for k in range(len(fact.factors)))))
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
    assert [list(row) for row in inst.space.rows] == expected


COXETER_FRAMES = [(3, 1), (3, 3), (3, 9), (5, 7), (17, 5), (16381, 3)]


def drawn_s(inst):
    """The norm-one element a Coxeter instance drew: g e_0 = s, so column 0
    of g holds its coordinates in the basis 1, b, ..., b^(n-1)."""
    level = 2 * inst.n
    b = gf.gen(inst.p, level)
    s_elem = gf.zero(inst.p, level)
    for i, row in enumerate(inst.g.rows):
        s_elem = s_elem + gf.embed(row[0], level) * b**i
    return s_elem


@pytest.mark.parametrize("q,n", COXETER_FRAMES, ids=[f"q{q}-n{n}" for q, n in COXETER_FRAMES])
def test_coxeter_frame_equals_the_entrywise_oracle(q, n):
    # the packed coordinate and Gram maps against Python sums and n^2 traces
    for seed in (0, 1):
        inst = random_coxeter_instance(q, n, seed)
        assert coxeter_frame_by_entries(q, n, drawn_s(inst)) == (inst.g, inst.tau, inst.space)


def test_coxeter_rejects_even_n():
    with pytest.raises(InputError):
        random_coxeter_instance(3, 2, 0)


def test_coxeter_exhausted_attempts_names_the_witness_degree(monkeypatch):
    # y = 1 gives s = 1, whose minimal polynomial over F_{q^2} has degree 1
    monkeypatch.setattr(gf, "random_elem", lambda p, level, rng: gf.one(p, level))
    with pytest.raises(ForgeError, match="exhausted attempts.*minimal polynomial of degree 1 < 3"):
        random_coxeter_instance(3, 3, 1)


def test_coxeter_frame_is_shared_and_every_instance_certified(monkeypatch):
    # two seeds at one (q, n) read one frame, and each instance still runs
    # certify_instance once, on the shared space and tau and its own g, with
    # no claim: a Coxeter certificate is factored
    calls = []

    def counted(gram, g, tau, claim=None):
        assert claim is None
        calls.append((gram, g, tau))
        return certify_instance(gram, g, tau)

    monkeypatch.setattr(forge, "certify_instance", counted)
    a = random_coxeter_instance(3, 5, 0)
    b = random_coxeter_instance(3, 5, 1)
    assert a.g != b.g and a.fact != b.fact
    assert a.tau is b.tau and a.space is b.space
    assert [(gram is a.space, g, tau is a.tau) for gram, g, tau in calls] == [(True, a.g, True), (True, b.g, True)]
    for inst in (a, b):
        assert inst.fact == certify_instance(inst.space, inst.g, inst.tau)


def test_interleaved_coxeter_frames_equal_the_entrywise_oracle():
    # a cache keyed by q or by n alone would hand one (q, n) another's frame
    for q, n in [(3, 9), (5, 9), (3, 7), (3, 9)]:
        inst = random_coxeter_instance(q, n, 2)
        assert coxeter_frame_by_entries(q, n, drawn_s(inst)) == (inst.g, inst.tau, inst.space)


@pytest.mark.parametrize("q,n", [(3, 4), (3, forge.N_MAX + 2), (9, 3)], ids=["even-n", "above-n-max", "q-not-prime"])
def test_invalid_coxeter_keys_never_enter_the_frame_cache(q, n):
    before = forge._coxeter_frame.cache_info().currsize
    with pytest.raises(InputError):
        random_coxeter_instance(q, n, 0)
    assert forge._coxeter_frame.cache_info().currsize == before


@pytest.mark.parametrize("factors", ["two-factors", "exponent-2"])
def test_coxeter_certificate_must_be_one_simple_factor_of_degree_n(factors, monkeypatch):
    # the constructor checks that "coxeter:5" names the shape of the
    # factorization it stores, as it checks every signature
    def forged(gram, g, tau, claim=None):
        (f, _), = certify_instance(gram, g, tau, claim).factors
        shape = ((f, 1), (f, 1)) if factors == "two-factors" else ((f, 2),)
        return FactoredPoly(factors=shape, pairing=tuple(range(len(shape))))

    monkeypatch.setattr(forge, "certify_instance", forged)
    with pytest.raises(InvariantError, match="does not name the factorization"):
        random_coxeter_instance(3, 5, 0)


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


def block_moduli(spec, q, seed):
    """The modulus P^a of every companion block build_block_instance makes,
    star(P)^a for the second block of a cp pair."""
    sig = parse_signature(spec)
    label = ",".join(b.spec_string() for b in sig)
    polys = forge._resolve_polys(sig, q, random.Random(f"forge:{q}:{label}:{seed}"))
    out = []
    for block, fp in zip(sig, polys):
        out.append(power_product([(fp, block.exponent)]))
        if block.kind == "cp":
            out.append(power_product([(star(fp), block.exponent)]))
    return out


@pytest.mark.parametrize(
    "spec,q,seed",
    [(spec, q, seed) for q in (3, 5, 7, 17, 31) for spec in DEFAULT_SIGNATURES for seed in (0, 1)]
    + RANDOM_SIGNATURES
    + [("sp:1:81", 31, seed) for seed in (0, 1)],
)
def test_inverse_t_powers_equal_the_division_route(spec, q, seed):
    for mod in block_moduli(spec, q, seed):
        assert forge._inverse_t_powers(mod) == inverse_t_powers_by_division(mod)


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
    assert len(candidates) > 1 and inst.space == candidates[-1]
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


@pytest.mark.parametrize(
    "signature,message",
    [
        (["nonsense"], "bad signature block 'nonsense'; expected sp:<deg>:<exp> or cp:<deg>:<exp>"),
        (["cp:7:7", "nonsense"], f"signature dimension must be at most {forge.N_MAX}, got 98"),
    ],
    ids=["nonsense", "first-spec-over-the-bound"],
)
def test_parse_prefixes_a_bad_stored_signature_before_any_matrix(signature, message, monkeypatch):
    data = serialize_instance(instance_from_spec("sp:1:3", 3, 8)) | {"signature": signature}

    def matrix_formed(*_):
        raise AssertionError("a matrix was built before the signature was read")

    monkeypatch.setattr(forge, "_matrix_from_json", matrix_formed)
    with pytest.raises(InputError) as exc:
        parse_instance(data)
    assert str(exc.value) == f"schema: signature: {message}"


def test_parse_keeps_the_invariant_error_for_a_wellformed_wrong_label():
    data = serialize_instance(instance_from_spec("sp:1:3", 3, 8)) | {"signature": ["sp:3:1"]}
    with pytest.raises(InvariantError, match="does not name the factorization"):
        parse_instance(data)


def test_certify_passes_on_fresh_instances():
    for spec, q in [("sp:1:3", 3), ("coxeter:3", 3), ("cp:2:1,sp:1:1", 5)]:
        inst = instance_from_spec(spec, q, 3)
        assert certify_instance(inst.space, inst.g, inst.tau) == inst.fact


def test_certify_rejects_unitary_non_scalar_non_regular_g():
    # diag(1, 1, -1) is unitary for the identity form; its eigenvalue 1 has a
    # 2-dimensional eigenspace, so dim ker(g - 1) exceeds deg(T - 1)
    one, z = gf.one(3, 2), gf.zero(3, 2)
    g = Matrix.from_rows(3, 2, [[one, z, z], [z, one, z], [z, z, -one]])
    ident = Matrix.identity(3, 2, 3)
    with pytest.raises(InvariantError, match="g is not regular"):
        certify_instance(ident, g, ident)


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


class Small(int):
    pass


class Pair(list):
    pass


def entry_rule(entry, p):
    """The schema rule for one matrix entry, entry by entry: the error it
    names, or None for an entry parse_instance accepts."""
    if not isinstance(entry, list) or len(entry) != 2:
        return "entries must be coefficient pairs"
    if not all(isinstance(c, int) and not isinstance(c, bool) and 0 <= c < p for c in entry):
        return f"coefficients must be integers in [0, {p})"
    return None


@pytest.mark.parametrize("where", [(0, 0), (2, 1)], ids=["first", "last"])
@pytest.mark.parametrize("entry", [
    [True, 0], [0, False], [1.0, 0], [0, 2.0], [-1, 0], [0, 3], ["1", 0], [None, 0],
    [1], [1, 0, 0], [], "10", 7, None, {"a": 1, "b": 2}, (1, 0),
    "same-as-int-subclass", "same-as-list-subclass",
])
def test_parse_validates_every_entry_as_the_entry_rule_does(entry, where):
    # the schema refuses what the rule refuses, with its message, and
    # accepts int and list subclasses but no bool
    data = serialize_instance(instance_from_spec("sp:1:3", 3, 8))
    r, c = where
    if entry == "same-as-int-subclass":
        entry = [Small(x) for x in data["g"][r][c]]
    elif entry == "same-as-list-subclass":
        entry = Pair(data["g"][r][c])
    expected = entry_rule(entry, 3)
    tampered = copy.deepcopy(data)
    tampered["g"][r][c] = entry
    if expected is None:
        assert parse_instance(tampered) == parse_instance(data)
    else:
        with pytest.raises(InputError) as exc:
            parse_instance(tampered)
        assert str(exc.value) == f"schema: g {expected}"


def test_parse_names_the_first_bad_row_in_row_order():
    data = serialize_instance(instance_from_spec("sp:1:3", 3, 8))
    bad_entry, short_row = copy.deepcopy(data), copy.deepcopy(data)
    bad_entry["g"][0][0], bad_entry["g"][1] = [0.5, 0], bad_entry["g"][1][:2]
    short_row["g"][0], short_row["g"][1][0] = short_row["g"][0][:2], [0.5, 0]
    with pytest.raises(InputError, match="coefficients must be integers"):
        parse_instance(bad_entry)
    with pytest.raises(InputError, match="g must be a 3x3 matrix"):
        parse_instance(short_row)


class NoMatrixFormed(Exception):
    pass


def forbid_building(monkeypatch):
    """Make the first step of either builder raise NoMatrixFormed: sampling
    an irreducible (the tau orbit of a tower element), a companion block, or
    the generator of the Coxeter field."""

    def formed(*_):
        raise NoMatrixFormed

    monkeypatch.setattr(gf, "tau_orbit", formed)
    monkeypatch.setattr(Matrix, "companion", staticmethod(formed))
    monkeypatch.setattr(gf, "gen", formed)


def test_build_block_instance_bounds_the_dimension(monkeypatch):
    forbid_building(monkeypatch)
    with pytest.raises(InputError, match=f"signature dimension must be at most {forge.N_MAX}, got {forge.N_MAX + 1}"):
        build_block_instance((BlockSpec("sp", 1, forge.N_MAX + 1),), 3, 0)
    with pytest.raises(NoMatrixFormed):  # at the bound the build starts
        build_block_instance((BlockSpec("sp", 1, forge.N_MAX),), 3, 0)


def test_random_coxeter_instance_bounds_the_dimension(monkeypatch):
    # N_MAX + 1 is even, which the torus model refuses on its own
    forbid_building(monkeypatch)
    with pytest.raises(InputError, match=f"coxeter dimension must be at most {forge.N_MAX}, got {forge.N_MAX + 2}"):
        random_coxeter_instance(3, forge.N_MAX + 2, 0)
    with pytest.raises(NoMatrixFormed):  # at the bound the build starts
        random_coxeter_instance(3, forge.N_MAX, 0)


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
    parts = {"gram": inst.space, "g": inst.g, "tau": inst.tau, part: bad}
    with pytest.raises(InvariantError, match=axiom):
        certify_instance(parts["gram"], parts["g"], parts["tau"])
    with pytest.raises(InvariantError, match=axiom):  # no instance is built uncertified
        MinusculeInstance(parts["gram"], parts["g"], parts["tau"], inst.seed, inst.signature)
    data = serialize_instance(inst)
    data[part] = bad.to_json()
    with pytest.raises(InvariantError, match=axiom):
        parse_instance(data)


def test_a_signature_is_read_as_the_shape_of_the_factorization():
    # coxeter:<n> names sp:<n>:1, and neither the order of the blocks nor
    # how they are split into strings matters; a kind, degree or exponent does
    cox = random_coxeter_instance(3, 5, 0)
    assert parse_instance(serialize_instance(cox) | {"signature": ["sp:5:1"]}).fact == cox.fact
    data = serialize_instance(instance_from_spec("cp:1:1,sp:1:1", 3, 3))
    for label in (["sp:1:1", "cp:1:1"], ["sp:1:1,cp:1:1"]):
        assert parse_instance(data | {"signature": label}).signature == tuple(label)
    for label in (["cp:1:1,cp:1:1"], ["sp:1:1", "sp:1:1", "sp:1:1"], ["coxeter:3"]):
        with pytest.raises(InvariantError, match="does not name the factorization"):
            parse_instance(data | {"signature": label})


def test_the_certificate_reads_the_instance_alone():
    # a serialized seed is untrusted and changes nothing of the certificate
    inst = instance_from_spec("cp:1:2,sp:1:1", 5, 4)
    data = serialize_instance(inst)
    other = parse_instance(data | {"seed": inst.seed + 1})
    assert other.fact == parse_instance(data).fact == inst.fact
    assert other != inst and other.seed == inst.seed + 1


def factor_forbidden(f):
    raise AssertionError("factor called on a claimed factorization")


def test_pickle_and_deepcopy_certify_again(monkeypatch):
    # the builder's claim is checked and not stored: a copy certifies again
    # by factoring, and the factored certificate equals the claimed one
    monkeypatch.setattr(forge, "factor", factor_forbidden)
    inst = instance_from_spec("cp:1:1,sp:1:3", 3, 2)
    claims, factored = [], []
    monkeypatch.setattr(forge, "factor", lambda f: factored.append(f) or factor(f))

    def counted(gram, g, tau, claim=None):
        claims.append(claim)
        return certify_instance(gram, g, tau, claim)

    monkeypatch.setattr(forge, "certify_instance", counted)
    for back in (pickle.loads(pickle.dumps(inst)), copy.deepcopy(inst)):
        assert back == inst and back.fact == inst.fact and back.fact is not inst.fact
    assert claims == [None, None] and len(factored) == 2
    assert "claim" not in repr(inst) and "claim" not in MinusculeInstance.__slots__


# ---------------------------------------------------------------------------
# the claimed factorization of a block instance


@pytest.mark.parametrize("q", [3, 5, 7, 17])
def test_block_builds_never_factor_and_the_other_routes_factor_once(q, monkeypatch):
    # the block builder certifies its claim; parse_instance and the Coxeter
    # builder factor once per instance, and factor agrees with the claim
    calls = []
    monkeypatch.setattr(forge, "factor", lambda f: calls.append(f) or factor(f))
    for seed in range(3):
        for spec in DEFAULT_SIGNATURES:
            inst = build_block_instance(parse_signature(spec), q, seed)
            assert calls == []
            assert inst.fact == factor(charpoly(inst.g)) == certify_instance(inst.space, inst.g, inst.tau)
            calls.clear()
            assert parse_instance(serialize_instance(inst)).fact == inst.fact
            assert calls == [charpoly(inst.g)]
            calls.clear()
        cox = random_coxeter_instance(q, 5, seed)
        assert calls == [charpoly(cox.g)]
        calls.clear()


def claimed_parts():
    """A certified cp:1:1,sp:1:2 instance at q = 3 and its factors: a
    conjugate pair of linears P, star(P) and a self-paired linear S of
    exponent 2."""
    inst = instance_from_spec("cp:1:1,sp:1:2", 3, 0)
    (i, j), = inst.fact.pairs()
    (k,) = inst.fact.self_paired()
    return inst, inst.fact.factors[i][0], inst.fact.factors[j][0], inst.fact.factors[k][0]


# name -> (the tampered claim from P, star(P), S; the refusal it meets)
TAMPERED_CLAIMS = {
    "two-linears-as-one-quadratic": (lambda p_, sp, s: [(p_ * sp, 1), (s, 2)], "claimed factor is not irreducible"),
    "repeated-factor": (lambda p_, sp, s: [(p_, 1), (sp, 1), (s, 1), (s, 1)], "claimed factorization repeats a factor"),
    "exponent-off-by-one": (lambda p_, sp, s: [(p_, 1), (sp, 1), (s, 3)], "does not multiply out to the polynomial"),
    "non-monic": (lambda p_, sp, s: [(p_, 1), (sp, 1), (s.scale(gf.from_base(3, 2, 2)), 2)],
                  "claimed factor is not a monic polynomial"),
}


@pytest.mark.parametrize("case", TAMPERED_CLAIMS)
def test_every_claim_refusal_fires(case):
    inst, *factors = claimed_parts()
    tamper, message = TAMPERED_CLAIMS[case]
    parts = (inst.space, inst.g, inst.tau)
    assert certify_instance(*parts, list(inst.fact.factors)) == inst.fact
    with pytest.raises(InvariantError, match=message):
        certify_instance(*parts, tamper(*factors))
    with pytest.raises(InvariantError, match=message):  # no instance is built on a false claim
        MinusculeInstance(*parts, inst.seed, inst.signature, claim=tamper(*factors))


def test_a_claim_with_unequal_exponents_across_a_pair_reaches_the_pairing_check():
    # a unitary g never has P star(P)^2 as its charpoly, so the claim route
    # is driven directly: the claim is true, and only the pairing refuses it
    _, p_, star_p, _ = claimed_parts()
    claim = [(p_, 1), (star_p, 2)]
    f = power_product(claim)
    for route in (lambda: certify_factorization(f, claim), lambda: factor(f)):
        with pytest.raises(InvariantError, match="exponents differ across the involution"):
            route()
