"""The benchmark tracer patches afl-lab functions by name from outside the
package; every name it patches must still exist, or `bench/run.py --trace 1`
breaks when a function is renamed or moved."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from afl_lab import gf

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
