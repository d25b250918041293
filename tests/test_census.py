"""Signature census: every signature of dimension at most CENSUS_DIM,
enumerated from the spec grammar alone (never through forge), built at
seed 0 over q = 3 and q = 5.  An odd n must give a passing AFL verdict, an
even n a passing counting identity, and a signature is refused, with the
realizability InputError, exactly when it needs more blocks of one kind and
degree than the brute-force supply counts of test_forge allow.  On every
realized one the isotropic walk and script_w equal their oracles."""

import itertools
from collections import Counter

import pytest

from afl_lab.engine import afl_verdict, fl_report
from afl_lab.errors import InputError
from afl_lab.forge import certify_instance, instance_from_spec
from test_engine import assert_counting_routes_equal_oracles
from test_forge import ENUMERATED_SELF_PAIRED, ENUMERATED_SUPPLY

CENSUS_DIM = 7
CENSUS_QS = (3, 5)
# (q, kind, degree) -> how many blocks of that kind and degree F_{q^2} can
# realize at once, as counted by brute force in test_forge
SUPPLY = {(q, kind, d): have for q, d, sp, pairs in ENUMERATED_SUPPLY for kind, have in (("sp", sp), ("cp", pairs))}
SUPPLY |= {(q, "sp", d): sp for q, d, sp in ENUMERATED_SELF_PAIRED}


def block_strings(max_dim):
    """Every block "sp:d:a" (d odd) and "cp:d:a" of dimension at most
    max_dim, with its dimension: d a for sp, 2 d a for cp."""
    out = []
    for kind, width in (("sp", 1), ("cp", 2)):
        for d in range(1, max_dim + 1):
            for a in range(1, max_dim // (width * d) + 1):
                if kind == "cp" or d % 2:
                    out.append((f"{kind}:{d}:{a}", width * d * a))
    return out


def census(max_dim):
    """Every nonempty multiset of blocks of total dimension at most max_dim,
    as a comma-joined spec in block order, with its dimension."""
    blocks = block_strings(max_dim)
    found = []

    def extend(start, chosen, dim):
        if chosen:
            found.append((",".join(chosen), dim))
        for i in range(start, len(blocks)):
            text, size = blocks[i]
            if dim + size <= max_dim:
                extend(i, chosen + [text], dim + size)

    extend(0, [], 0)
    return found


def predicted_refusal(spec, q):
    """More blocks of one (kind, degree) than SUPPLY allows.  A kind and
    degree needed twice must be in SUPPLY; one needed once is always
    realizable, as F_{q^2} has an irreducible (or a pair) of each."""
    need = Counter((kind, int(d)) for kind, d, _ in (block.split(":") for block in spec.split(",")))
    for (kind, d), count in need.items():
        assert count == 1 or (q, kind, d) in SUPPLY, (spec, q)
    return any(count > SUPPLY.get((q, kind, d), 1) for (kind, d), count in need.items())


def test_census_enumerates_every_multiset_once():
    specs = census(CENSUS_DIM)
    assert len(specs) == len({spec for spec, _ in specs}) == 123
    # the same multisets as every sorted tuple of blocks within the bound
    blocks = block_strings(CENSUS_DIM)
    brute = {
        frozenset(Counter(text for text, _ in combo).items())
        for k in range(1, CENSUS_DIM + 1)
        for combo in itertools.combinations_with_replacement(blocks, k)
        if sum(size for _, size in combo) <= CENSUS_DIM
    }
    assert brute == {frozenset(Counter(spec.split(",")).items()) for spec, _ in specs}


@pytest.mark.parametrize("q", CENSUS_QS)
def test_every_census_signature_passes_or_is_refused_as_predicted(q):
    failed, refused, counts = [], set(), Counter()
    for spec, dim in census(CENSUS_DIM):
        try:
            inst = instance_from_spec(spec, q, 0)
        except InputError as exc:
            assert "is not realizable" in str(exc), (spec, str(exc))
            refused.add(spec)
            continue
        # the builder's certificate checks its claim; without one,
        # certify_instance factors: the oracle for the claim route
        assert inst.n == dim and inst.fact == certify_instance(inst.space, inst.g, inst.tau)
        report = afl_verdict(inst).to_json() if dim % 2 else fl_report(inst)
        counts[dim % 2] += 1
        if report["verdict"] != "PASS":
            failed.append(spec)
    assert failed == []
    assert refused == {spec for spec, _ in census(CENSUS_DIM) if predicted_refusal(spec, q)}
    assert counts[1] + counts[0] + len(refused) == 123


@pytest.mark.parametrize("q", CENSUS_QS)
def test_counting_routes_equal_oracles_on_the_census(q):
    for spec, _ in census(CENSUS_DIM):
        if not predicted_refusal(spec, q):
            assert_counting_routes_equal_oracles(instance_from_spec(spec, q, 0))
