"""The benchmark tracer patches afl-lab functions by name from outside the
package; every name it patches must still exist, or `bench/run.py --trace 1`
breaks when a function is renamed or moved.  It also reads results: the
lattice metric is len() of what invariant_subspaces returns, once per
verdict, through engine's reference."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from afl_lab import engine, gf, linalg
from afl_lab.forge import instance_from_spec
from afl_lab.poly import divisor_exponents

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # defines the tables; installs nothing
    return module


TRACER = load_tracer()
TARGETS = sorted(
    {target for targets in TRACER.PHASES.values() for target in targets} | set(TRACER.KERNELS.values())
)


@pytest.mark.parametrize("module_name,attr", TARGETS, ids=[f"{m}.{a}" for m, a in TARGETS])
def test_tracer_target_resolves(module_name, attr):
    owner = importlib.import_module(f"afl_lab.{module_name}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(owner, cls_name))  # the tracer reads the class dict
    else:
        assert callable(getattr(owner, attr))


@pytest.mark.parametrize("meth", ["__mul__", "inverse"])
def test_traced_field_ops_live_in_the_class_dict(meth):
    assert meth in vars(gf.FieldElem)


def test_lattice_len_is_the_number_of_divisors():
    # a repeated self-paired factor and a cp pair of repeated factors
    inst = instance_from_spec("cp:1:2,sp:1:3", 3, 0)
    assert sorted(a for _, a in inst.fact.factors) == [2, 2, 3] and inst.fact.pairs()
    assert len(linalg.invariant_subspaces(inst.g, inst.fact)) == len(divisor_exponents(inst.fact)) == 36


def test_engine_holds_the_lattice_under_its_name():
    assert engine.invariant_subspaces is linalg.invariant_subspaces


@pytest.mark.parametrize("spec,run", [
    ("cp:1:2,sp:1:3", lambda inst: engine.afl_verdict(inst, cross_check=True)),
    ("cp:1:2,cp:1:1", engine.fl_check),
], ids=["afl_verdict", "fl_check"])
def test_each_report_forms_the_lattice_once(spec, run, monkeypatch):
    calls = []

    def counting(g, fact):
        calls.append(fact)
        return linalg.invariant_subspaces(g, fact)

    monkeypatch.setattr(engine, "invariant_subspaces", counting)
    run(instance_from_spec(spec, 3, 0))
    assert len(calls) == 1
