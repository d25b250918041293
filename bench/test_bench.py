"""Tests for the benchmark's own code: the oracle, the checks, the tracer.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import copy
import json
import time
from pathlib import Path

import pytest

import oracle
import run
import hostspeed
from hostspeed import PROBE_REF_S, HostSpeed
from tracer import LAYER_METRICS, Tracer

run.import_afl_lab()

from afl_lab import cli, dl, engine, forge, gf  # noqa: E402


# ---------------------------------------------------------------------------
# the oracle against hand-worked signatures


@pytest.mark.parametrize(
    "sig, n, divisors, stable, analytic, card, deriv, isotropic, contributing",
    [
        ("sp:1:1", 1, 2, {0: 1, 1: 1}, 1, 1, 1, 1, 1),
        # dims 0..3 once each: A = -(0 - 1 + 2 - 3) = 2; strata m in {0, 1}
        ("sp:1:3", 3, 4, {0: 1, 1: 1, 2: 1, 3: 1}, 2, 1, 2, 2, 1),
        # the pair moves in steps of 2: dims {0, 2} x {0, 1}; 3 pair strata
        ("cp:1:1,sp:1:1", 3, 8, {0: 1, 1: 1, 2: 1, 3: 1}, 2, 2, 2, 3, 2),
        ("sp:3:1", 3, 2, {0: 1, 3: 1}, 3, 3, 3, 1, 1),
        # (1 + x)^3: -3 + 6 - 3 = 0, and three odd sp blocks leave no support
        ("sp:1:1,sp:1:1,sp:1:1", 3, 8, {0: 1, 1: 3, 2: 3, 3: 1}, 0, None, None, 1, 0),
        # the even sp block contributes strata m in {0, 1} but no support
        ("sp:1:1,sp:1:2", 3, 6, {0: 1, 1: 2, 2: 2, 3: 1}, 1, 1, 1, 2, 1),
    ],
)
def test_oracle_hand_worked(sig, n, divisors, stable, analytic, card, deriv, isotropic, contributing):
    e = oracle.expected_counts(sig)
    assert (e.n, e.divisors, e.stable_by_dim, e.analytic) == (n, divisors, stable, analytic)
    assert (e.closed_card, e.closed_deriv) == (card, deriv)
    assert e.support == ("Finite" if card else "Empty")
    assert (e.isotropic_strata, e.contributing_strata) == (isotropic, contributing)


@pytest.mark.parametrize(
    "sig, n, divisors, isotropic",
    [
        ("cp:1:2,cp:1:1,sp:1:1", 7, 72, 18),
        ("cp:1:2,cp:1:1,sp:1:3", 9, 144, 36),
        ("cp:1:2,cp:1:2,sp:1:3", 11, 324, 72),
    ],
)
def test_oracle_lattice_sizes(sig, n, divisors, isotropic):
    e = oracle.expected_counts(sig)
    assert (e.n, e.divisors, e.isotropic_strata) == (n, divisors, isotropic)
    # the identity itself: A equals the closed-form derivative
    assert e.analytic == e.closed_deriv


def test_oracle_defining_polys_match_the_tower():
    for p, degree in [(3, 2), (3, 6), (3, 14), (3, 18), (5, 2), (5, 6)]:
        assert oracle.defining_poly(p, degree) == gf.defining_poly(p, degree)


# ---------------------------------------------------------------------------
# each check passes on real output and fails when one field is altered


@pytest.fixture(scope="module")
def afl_report():
    config = cli.SweepConfig(qs=(3,), max_dim=9, count=1, seed=20240, signatures=("cp:1:1,sp:1:3",),
                             jobs=1, out=None)
    _, reports = cli.run_sweep(config)
    return json.loads(json.dumps(reports[0]))


def test_default_grid_agrees_with_oracle():
    for spec in cli.DEFAULT_SIGNATURES:
        report = engine.afl_verdict(forge.instance_from_spec(spec, 3, 7)).to_json()
        assert oracle.check_afl_report(report, 3, spec) == [], spec


def _first_contributing(report):
    return next(s for s in report["strata"] if s["fixed_count"])


AFL_MUTATIONS = {
    "A": lambda r: r.update(A=r["A"] + 1),
    "G": lambda r: r.update(G=r["G"] - 1),
    "verdict": lambda r: r.update(verdict="FAIL"),
    "support": lambda r: r.update(support="Empty"),
    "dropped stratum": lambda r: r["strata"].pop(),
    "silenced stratum": lambda r: _first_contributing(r).update(fixed_count=0),
    "dl_count": lambda r: _first_contributing(r).update(dl_count=_first_contributing(r)["dl_count"] + 1),
    "m_counts": lambda r: r["m_counts"].update({"1": r["m_counts"]["1"] + 1}),
    "closed_deriv": lambda r: r.update(closed_deriv=r["closed_deriv"] * 2),
}


@pytest.mark.parametrize("name", sorted(AFL_MUTATIONS))
def test_afl_check_catches_altered_field(afl_report, name):
    assert oracle.check_afl_report(afl_report, 3, "cp:1:1,sp:1:3") == []
    bad = copy.deepcopy(afl_report)
    AFL_MUTATIONS[name](bad)
    assert oracle.check_afl_report(bad, 3, "cp:1:1,sp:1:3")


def test_afl_check_catches_wrong_signature(afl_report):
    assert oracle.check_afl_report(afl_report, 3, "cp:1:1,sp:1:1")


@pytest.fixture(scope="module")
def dl_payload():
    inst = forge.random_coxeter_instance(3, 3, 5)
    records = dl.dl_fixed_points(inst.space, inst.g, seed=5)
    return {
        "count": len(records),
        "galois_transitive": dl.galois_orbit_check(records),
        "eigenvalue_orbit": [list(r.eigenvalue.coeffs) for r in records],
    }


DL_MUTATIONS = {
    "count": lambda d: d.update(count=d["count"] - 1),
    "transitive": lambda d: d.update(galois_transitive=False),
    "repeated eigenvalue": lambda d: d["eigenvalue_orbit"].__setitem__(1, d["eigenvalue_orbit"][0]),
    "foreign eigenvalue": lambda d: d["eigenvalue_orbit"].__setitem__(0, [1] + [0] * 5),
    "non-root": lambda d: d["eigenvalue_orbit"].__setitem__(2, [(c + 1) % 3 for c in d["eigenvalue_orbit"][2]]),
}


@pytest.mark.parametrize("name", sorted(DL_MUTATIONS))
def test_dl_check_catches_altered_field(dl_payload, name):
    assert oracle.check_dl_payload(dl_payload, 3, 3) == []
    bad = copy.deepcopy(dl_payload)
    DL_MUTATIONS[name](bad)
    assert oracle.check_dl_payload(bad, 3, 3)


# ---------------------------------------------------------------------------
# tracer and harness


def test_tracer_counts_and_uninstalls():
    mul, lattice = gf.FieldElem.__mul__, engine.invariant_subspaces
    tracer = Tracer().install()
    with tracer.operation(0, "verify"):
        report = engine.afl_verdict(forge.instance_from_spec("cp:1:1,sp:1:1", 3, 1)).to_json()
    tracer.uninstall()
    assert gf.FieldElem.__mul__ is mul and engine.invariant_subspaces is lattice
    m = tracer.metrics()
    e = oracle.expected_counts("cp:1:1,sp:1:1")
    assert m["linalg.lattice_subspaces"]["value"] == e.divisors
    assert m["engine.strata"]["value"] == len(report["strata"]) == e.isotropic_strata
    assert m["engine.script_w_calls"]["value"] >= 1
    assert m["forge.build_s"]["value"] >= m["forge.build.self_s"]["value"] > 0
    assert m["gf.mul_calls.l2"]["value"] > 0
    names = {s[2] for s in tracer.spans}
    assert {"op.verify", "forge.build", "engine.verdict", "linalg.lattice"} <= names
    roots = [s for s in tracer.spans if s[1] is None]
    assert [s[2] for s in roots] == ["op.verify"]


def test_host_speed_scale_uses_the_samples_near_an_interval():
    speed = HostSpeed()
    speed.samples = [(0.0, 0.002), (0.3, 0.004), (10.0, 0.008)]
    assert speed.scale(0.1, 0.2) == PROBE_REF_S / 0.003
    assert speed.scale(9.8, 12.0) == PROBE_REF_S / 0.008
    assert speed.scale(3.0, 3.1) == PROBE_REF_S / 0.004  # none near: the nearest one


def test_benchmark_json_matches_the_harness():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == sorted(run.WORKLOADS, key=["sweep", "lattice", "dl"].index)
    assert {m["name"] for m in spec["per_layer"]} == {m for m, _, _ in LAYER_METRICS} | {"trace.ops_per_s"}
    assert {m["name"] for m in spec["end_to_end"]} == {"ops_per_s", "op_s.p50", "setup_s", "peak_rss_mib"}


def test_traced_sweep_round_is_correct(capsys):
    assert run.main(["--workload", "sweep", "--seed", "3", "--seconds", "1", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 20, 0)
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}


def test_a_raising_operation_makes_the_run_incorrect(monkeypatch, capsys):
    def boom():
        raise ArithmeticError("boom")

    ops = [run.Op("fine", lambda: "{}", lambda text: []), run.Op("boom", boom, lambda text: [])]
    monkeypatch.setitem(run.WORKLOADS, "dl", lambda seed, rounds: run.Workload(ops, [(3, 2)]))
    assert run.main(["--workload", "dl", "--seed", "1", "--seconds", "1", "--trace", "0"]) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 2, 1)


def test_cold_start_is_measured_against_the_reference_child(monkeypatch):
    monkeypatch.setattr(run, "cold_ref_s", lambda: hostspeed.COLD_REF_S / 2)
    raw, scaled = run.cold_start([(3, 2)])
    assert raw > 0 and scaled == pytest.approx(2 * raw)


def test_no_probe_runs_while_the_sampler_is_paused(monkeypatch):
    monkeypatch.setattr(HostSpeed, "PERIOD_S", 0.01)
    with HostSpeed() as speed:
        with speed.paused():
            before = len(speed.samples)
            time.sleep(0.2)
            assert len(speed.samples) == before
        time.sleep(0.2)
        assert len(speed.samples) > before
