"""A cold `import afl_lab` or `import afl_lab.cli` loads none of the heavy
standard modules: dataclasses alone pulls in inspect, ast, dis, tokenize and
re, and only `sweep --jobs N` with N > 1 needs a process pool.  Checked in a
fresh interpreter by module name, not by time, so it cannot flake."""

import subprocess
import sys
from pathlib import Path

import pytest

import afl_lab

SRC = Path(afl_lab.__file__).resolve().parents[1]
HEAVY = ("dataclasses", "inspect", "ast", "dis", "typing", "concurrent.futures", "multiprocessing")


@pytest.mark.parametrize("module", ["afl_lab", "afl_lab.cli"])
def test_import_loads_no_heavy_module(module):
    code = f"import sys; sys.path.insert(0, sys.argv[1]); import {module}; print(*set({HEAVY!r}) & set(sys.modules))"
    out = subprocess.run([sys.executable, "-S", "-I", "-c", code, str(SRC)], capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.split() == []
