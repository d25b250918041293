"""src holds no test-only code: every function, class and method defined in
src/afl_lab is referenced from src, exported by __init__, or a named oracle
on the allowlist below; every function and method, nested functions
included, runs under some command of a fixed CLI battery, or is on a second
allowlist; every name a src module imports is read there; every kernel with
a loop on gf's encodings is on a third allowlist, with the workload that
pays for it; every function that draws from a seeded rng is on a fourth,
with its reason; every function that constructs an rng is on a fifth, with
what its key holds; no src module reads the environment, so stdout is a
function of argv; and every raise in src is bare or names a VerifierError
subclass, ZeroDivisionError, or inside errors.Record TypeError or
AttributeError."""

import ast
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import afl_lab

SRC = Path(afl_lab.__file__).resolve().parent

# name -> why src keeps it although no src code references it
ALLOWED = {
    "is_isotropic": "oracle: isotropy by the definition, against the adapted-basis pass",
    "make_tower": "public: validates (p, max_level) and realizes every even level of a tower",
}


def definitions(tree, nested=False):
    """(qualified name, name, node) of every function, class and method, and
    with nested of every function defined inside a function."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out.append((prefix + child.name, child.name, child))
                if nested or isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")

    visit(tree, "")
    return out


def read_names(node):
    """Counter of the names node reads, as a bare name or as an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    )


def unreferenced():
    """Definitions whose name src reads nowhere outside their own body."""
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    everywhere = sum((read_names(tree) for tree in trees.values()), Counter())
    found = []
    for module, tree in trees.items():
        for qualname, name, node in definitions(tree):
            dunder = name.startswith("__") and name.endswith("__")
            if not dunder and everywhere[name] == read_names(node)[name]:
                found.append(f"{module}.{qualname}")
    return found


def test_src_defines_nothing_only_tests_use():
    exported = set(afl_lab.__all__)
    offenders = [q for q in unreferenced() if q.rsplit(".", 1)[-1] not in exported | set(ALLOWED)]
    assert offenders == []


def test_every_allowlisted_name_is_still_defined_and_unreferenced():
    names = {q.rsplit(".", 1)[-1] for q in unreferenced()}
    assert set(ALLOWED) <= names


# Runs the battery with cli.main in one fresh interpreter, so that no cache
# an earlier test warmed (towers, tables, defining polynomials) hides a call,
# and prints the (module, first line) of every src function that was called.
BATTERY_CHILD = """
import contextlib, io, json, os, sys
sys.path.insert(0, sys.argv[1])
from afl_lab import cli
pkg = os.path.dirname(cli.__file__) + os.sep
called = set()

def profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith(pkg):
        called.add((os.path.basename(code.co_filename)[:-3], code.co_firstlineno))

sys.setprofile(profile)
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [cli.main(argv) for argv in json.loads(sys.argv[2])]
sys.setprofile(None)
print(json.dumps({"codes": codes, "called": sorted(called)}))
"""

# module.qualname -> why no command of the battery calls it
PROTOCOL = "record protocol: repr, pickling or immutability of a value"
UNCALLED = {
    "errors.Record.__init_subclass__": "record protocol: runs when a subclass is defined, at import",
    "errors.Record.__hash__": "record protocol: values stay hashable, and no command hashes one",
    "errors.Record.__setattr__": PROTOCOL,
    "errors.Record.__delattr__": PROTOCOL,
    "errors.Record.__repr__": PROTOCOL,
    "errors.Record.__reduce__": PROTOCOL,
    "gf.make_tower": ALLOWED["make_tower"],
    "hermitian.is_isotropic": ALLOWED["is_isotropic"],
    "linalg.Matrix.is_zero": "oracle: read by is_isotropic only",
    "linalg.Lattice.__len__": "the benchmark tracer reads len() of the lattice",
    "poly.Poly.zero": "a product with a zero operand (Poly.__mul__, Modulus.mul), which no command forms",
}


def uncalled_by_battery(tmp_path):
    """module.qualname of every function and method defined in src that no
    command of the battery calls."""
    stored = tmp_path / "instance.json"
    battery = [
        ["sweep", "--count", "20", "--q", "3,5", "--out", str(tmp_path / "sweep.json"), "--pretty", "--timings"],
        ["sweep", "--count", "20", "--q", "17,19", "--no-cross-check"],
        ["verify", "--q", "3", "--sig", "cp:1:2,sp:1:3", "--pretty", "--timings"],
        ["verify", "--q", "31", "--sig", "coxeter:5"],
        ["verify", "--q", "16381", "--sig", "cp:1:1,sp:1:3"],
        # verify --in factors: the roots leave first, then the quadratic
        # factors of exponent p = 3 reach the p-th root and the quadratic
        # pair of exponent 1 a Cantor-Zassenhaus draw
        ["gen", "--q", "3", "--sig", "cp:2:3,cp:2:1,sp:1:1", "--out", str(stored), "--pretty"],
        ["verify", "--in", str(stored)],
        ["gen", "--q", "3", "--sig", "coxeter:5"],
        # a repeated factor on even n: the counting identity
        ["verify", "--q", "3", "--sig", "cp:1:2,cp:1:1"],
        ["verify", "--q", "3", "--sig", "cp:1:1", "--pretty"],
        ["orbital", "--q", "3", "--sig", "cp:1:1,sp:1:3"],
        ["dl", "--q", "3", "--t", "5"],
        ["dl", "--q", "17", "--t", "3"],
    ]
    out = subprocess.run([sys.executable, "-c", BATTERY_CHILD, str(SRC.parent), json.dumps(battery)],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout)
    assert result["codes"] == [0] * len(battery)
    called = {tuple(entry) for entry in result["called"]}
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for qualname, _, node in definitions(ast.parse(path.read_text(), str(path)), nested=True):
            # a decorated function's code starts at its first decorator
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            if not isinstance(node, ast.ClassDef) and (path.stem, first) not in called:
                found.add(f"{path.stem}.{qualname}")
    return found


def test_every_src_function_runs_under_some_command(tmp_path):
    uncalled = uncalled_by_battery(tmp_path)
    assert sorted(uncalled - set(UNCALLED)) == []  # reached by no command: remove it, or name why it stays
    assert sorted(set(UNCALLED) - uncalled) == []  # a command calls it now: drop it from the allowlist


def unused_imports(src=SRC):
    """module.name for every name a src module imports but never reads; a
    name in the module's __all__ counts as read (the package re-exports)."""
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        read = read_names(tree)
        exported = {
            elt.value
            for node in tree.body
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
            for elt in node.value.elts
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if not read[name] and name not in exported:
                        found.append(f"{path.stem}.{name}")
    return found


def test_src_imports_nothing_it_does_not_read():
    assert unused_imports() == []


def test_unused_import_guard_sees_a_leftover(tmp_path):
    # an import whose last reader is gone, as kernel would be in dl
    leftover = tmp_path / "leftover.py"
    leftover.write_text("from .linalg import Matrix, kernel\n\n\ndef f(m: Matrix):\n    return m\n")
    assert unused_imports(tmp_path) == ["leftover.kernel"]


# the process environment: a report is a function of argv and the --in file
ENVIRONMENT = {"environ", "getenv", "putenv"}


def environment_reads(src=SRC):
    """module.name for every read of the environment in src, as a name, an
    attribute or an import."""
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        read = read_names(tree) + Counter(
            alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names
        )
        found += [f"{path.stem}.{name}" for name in sorted(ENVIRONMENT) if read[name]]
    return found


def test_src_reads_no_environment():
    assert environment_reads() == []


def test_environment_guard_sees_a_reader(tmp_path):
    (tmp_path / "seeds.py").write_text(
        "import os\nfrom os import getenv as env\n\n\n"
        "def seed(args):\n    os.putenv('S', '0')\n    return int(os.environ.get('S', args.seed))\n"
    )
    (tmp_path / "quiet.py").write_text("import os\n\n\ndef cpus():\n    return os.cpu_count()\n")
    assert environment_reads(tmp_path) == ["seeds.environ", "seeds.getenv", "seeds.putenv"]


# the value protocol: errors.Record defines it once, for every value type
VALUE_PROTOCOL = {"__eq__", "__hash__", "__repr__", "__reduce__", "__setattr__", "__delattr__"}


def protocol_definers(src=SRC):
    """module.class.name of every value-protocol method that a src class
    other than errors.Record defines, by def or by assignment."""
    found = []
    for path in sorted(src.glob("*.py")):
        for qualname, _, node in definitions(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef) and f"{path.stem}.{qualname}" != "errors.Record":
                for item in node.body:
                    targets = item.targets if isinstance(item, ast.Assign) else [item]
                    names = {getattr(t, "name", getattr(t, "id", None)) for t in targets}
                    found += [f"{path.stem}.{qualname}.{name}" for name in sorted(names & VALUE_PROTOCOL)]
    return found


def test_only_record_defines_the_value_protocol():
    assert protocol_definers() == []


def test_protocol_guard_sees_a_new_definer(tmp_path):
    (tmp_path / "errors.py").write_text("class Record:\n    def __eq__(self, other):\n        return True\n")
    (tmp_path / "values.py").write_text(
        "from .errors import Record\n\n\nclass Poly(Record):\n    def __hash__(self):\n        return 0\n\n"
        "    __repr__ = object.__repr__\n\n\ndef __eq__(a, b):\n    return a is b\n"
    )
    assert protocol_definers(tmp_path) == ["values.Poly.__hash__", "values.Poly.__repr__"]


# gf's table layout: an interned element's encoding and tables, and the
# tables class, whose instances only gf.index_rows hands out
TABLE_LAYOUT = {"_enc", "_tables", "_Tables"}


def table_layout_reads(src=SRC):
    """module.name for every read of gf's table layout in a module other than gf."""
    found = []
    for path in sorted(src.glob("*.py")):
        if path.stem != "gf":
            read = read_names(ast.parse(path.read_text(), str(path)))
            found += [f"{path.stem}.{name}" for name in sorted(TABLE_LAYOUT) if read[name]]
    return found


def test_only_gf_reads_the_table_layout():
    assert table_layout_reads() == []


def test_table_layout_guard_sees_a_reader(tmp_path):
    (tmp_path / "gf.py").write_text("def enc(x):\n    return x._enc\n")
    (tmp_path / "reader.py").write_text("def enc(x):\n    return x._enc, x._tables, gf._Tables\n")
    assert table_layout_reads(tmp_path) == ["reader._Tables", "reader._enc", "reader._tables"]


# module.qualname -> the workload and measured cost that keep its loop on
# encodings (gf.index_rows) beside its FieldElem loop: what the benchmark's
# in-process rounds (sweep 120 tasks, lattice 8 verdicts, dl 3 counts) lose
# with only that loop removed, the median over 11 fresh processes of the
# fastest of 5 passes against the fastest of 5 unchanged passes alternating
# with them, on a shared 2-vCPU host where the unchanged passes spread by
# (q3 - q1) / median = 30 %, 44 % and 42 % across processes.  Measured by
# tests/encoded_costs.py.  A kernel not named here runs its FieldElem loop
# on every field.
ENCODED = {
    "gf.dot": "dl +14 %, lattice +8 %, sweep +0 %",
    "linalg.Matrix.__matmul__": "lattice +55 %, sweep +19 %, dl +14 %",
    "linalg.charpoly": "dl +9 %, sweep +7 %, lattice +5 %",
    "linalg.krylov_rows": "lattice +8 %, dl +2 %, sweep +1 %",
    "linalg.rref": "sweep +20 %, lattice +9 %, dl +1 %",
    "poly.Poly.__mul__": "lattice +30 %, sweep +16 %, dl -1 %",
    "poly.Poly.powmod": "dl +12 %, sweep +4 %, lattice -2 %",
    "poly.plain_factor": "lattice +19 %, sweep +1 %, dl +0 %",
    "poly.poly_gcd": "dl +16 %, sweep +3 %, lattice -2 %",
}


def callers(name, src=SRC):
    """module.qualname of every src function or method that calls `name`,
    bare or as an attribute; a nested function's calls count for its
    enclosing one."""
    found = set()
    for path in sorted(src.glob("*.py")):
        for qualname, _, node in definitions(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ClassDef) and any(
                isinstance(n, ast.Call) and getattr(n.func, "id", getattr(n.func, "attr", None)) == name
                for n in ast.walk(node)
            ):
                found.add(f"{path.stem}.{qualname}")
    return found


def test_every_encoded_fork_names_its_workload():
    assert sorted(callers("index_rows")) == sorted(ENCODED)


def test_encoded_guard_sees_a_new_caller(tmp_path):
    (tmp_path / "kernel.py").write_text(
        "from . import gf\nfrom .gf import index_rows\n\n\n"
        "class M:\n    def apply(self, v):\n        return gf.index_rows(v)\n\n\n"
        "def f(v):\n    def inner():\n        return index_rows(v)\n    return inner\n"
    )
    assert sorted(callers("index_rows", tmp_path)) == ["kernel.M.apply", "kernel.f"]


# module.qualname -> why it draws from a seeded rng itself.  The order of the
# draws fixes every seeded report, so each element draw goes through
# gf.random_elem, and a draw of another shape is named here.
RNG_DRAWS = {
    "gf.random_elem": "the element draw: `level` randrange(p), low coefficient first",
    "forge._gram_candidates": "F_p coefficients of the Gram unknowns, not elements of one field",
    "linalg._cyclic_krylov": "one randrange(p**level) per entry; an element draw would change the seeded vector",
}


def test_every_rng_draw_has_a_named_site():
    assert sorted(callers("randrange")) == sorted(RNG_DRAWS)


def test_rng_guard_sees_a_new_caller(tmp_path):
    (tmp_path / "sampler.py").write_text(
        "from . import gf\n\n\ndef draw(p, rng):\n    return gf.elem(p, 2, [rng.randrange(p) for _ in 'ab'])\n"
    )
    assert sorted(callers("randrange", tmp_path)) == ["sampler.draw"]


# module.qualname -> (whether its rng key reads a seed, what the key holds
# and why).  A key without a seed says that no seed can change the result.
RNG_KEYS = {
    "forge.build_block_instance": (True, "(q, signature, seed): the block polynomials, so the seed picks the instance"),
    "forge._gram_candidates": (True, "(q, signature, seed): the combinations of the Gram basis, drawn with the instance"),
    "forge.random_coxeter_instance": (True, "(q, n, seed): the norm-one element s, so the seed picks the instance"),
    "dl.dl_fixed_points": (True, "(q, t, seed): the trace-split tries; no record depends on them, but the "
                                 "benchmark harness passes seed="),
    "linalg._cyclic_krylov": (False, "(q, level, n): a cyclic vector; every one spans the same invariant subspaces"),
    "poly.plain_factor": (False, "(q, level): the Cantor-Zassenhaus tries; the factorization is unique and sorted"),
}


def rng_keys(src=SRC):
    """module.qualname -> one entry per random.Random it constructs: the
    sorted names interpolated into its f-string key, or None for a key that
    is not an f-string."""
    found = {}
    for path in sorted(src.glob("*.py")):
        for qualname, _, node in definitions(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef):
                continue
            for call in ast.walk(node):
                if isinstance(call, ast.Call) and getattr(call.func, "id", getattr(call.func, "attr", None)) == "Random":
                    key = call.args[0] if len(call.args) == 1 and not call.keywords else None
                    found.setdefault(f"{path.stem}.{qualname}", []).append(
                        sorted({n for v in ast.walk(key) if isinstance(v, ast.FormattedValue) for n in read_names(v)})
                        if isinstance(key, ast.JoinedStr) else None
                    )
    return found


def test_every_rng_key_is_named():
    keys = rng_keys()
    assert sorted(keys) == sorted(callers("Random")) == sorted(RNG_KEYS)
    for site, (reads_seed, _) in RNG_KEYS.items():
        assert all(names is not None and ("seed" in names) == reads_seed for names in keys[site]), site


def test_rng_key_guard_sees_a_new_caller(tmp_path):
    (tmp_path / "draws.py").write_text(
        "import random\nfrom random import Random\n\n\n"
        "def keyed(f, seed):\n    return random.Random(f'draw:{f.p}:{seed}')\n\n\n"
        "def bare(seed):\n    return Random(seed)\n"
    )
    assert rng_keys(tmp_path) == {"draws.bare": [None], "draws.keyed": [["f", "p", "seed"]]}


def private_gf_reads(src=SRC):
    """module.name for every private gf name (gf._name, or _name imported
    from gf) that a module other than gf reads; gf's public functions are
    its interface, and its helpers may change with it."""
    found = []
    for path in sorted(src.glob("*.py")):
        if path.stem == "gf":
            continue
        names = set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "gf":
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module == "gf":
                names.update(alias.name for alias in node.names)
        found += [f"{path.stem}.{name}" for name in sorted(names) if name.startswith("_") and not name.endswith("__")]
    return found


def test_only_gf_reads_its_private_names():
    assert private_gf_reads() == []


def test_private_gf_guard_sees_a_reader(tmp_path):
    (tmp_path / "gf.py").write_text("def _helper(x):\n    return x\n")
    (tmp_path / "reader.py").write_text(
        "from . import gf\nfrom .gf import _kronecker_mul, dot as _dot\n\n\n"
        "def f(x):\n    return gf._norm_inverse(x), gf.embed(x, 4), gf.__name__, _dot, _kronecker_mul\n"
    )
    assert private_gf_reads(tmp_path) == ["reader._kronecker_mul", "reader._norm_inverse"]


# the classes a src raise may name: the VerifierError subclasses, one
# refusal path to exit 2, and ZeroDivisionError for a zero divisor; the
# record protocol alone refuses a bad construction or a write to a field
# with TypeError and AttributeError, as Python's own values do
RAISED = {"InputError", "InvariantError", "ForgeError", "CrossCheckError", "ZeroDivisionError"}
RAISED_BY_RECORD = {"TypeError", "AttributeError"}


def raise_offenders(src=SRC):
    """module:line and class of every raise in src that is neither a bare
    re-raise nor of a class it may raise there."""
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        in_record = {
            id(n) for qualname, _, node in definitions(tree)
            if (path.stem, qualname) == ("errors", "Record") for n in ast.walk(node)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = getattr(exc, "id", getattr(exc, "attr", None))
                if name not in RAISED | (RAISED_BY_RECORD if id(node) in in_record else set()):
                    found.append(f"{path.stem}:{node.lineno} {name}")
    return sorted(found)


def test_src_raises_only_verifier_errors():
    assert raise_offenders() == []


def test_raise_guard_sees_a_stray_class(tmp_path):
    (tmp_path / "errors.py").write_text(
        "class Record:\n    def __setattr__(self, name, value):\n        raise AttributeError(name)\n\n\n"
        "class Other:\n    def __setattr__(self, name, value):\n        raise AttributeError(name)\n"
    )
    (tmp_path / "kernel.py").write_text(
        "from . import errors\nfrom .errors import InputError\n\n\n"
        "def f(x):\n    try:\n        return 1 / x\n    except ZeroDivisionError:\n        raise\n"
        "    raise InputError('x') from None\n\n\n"
        "def g(x):\n    if x:\n        raise AssertionError('broken')\n    raise ValueError\n\n\n"
        "def h(x):\n    raise errors.CrossCheckError('broken')\n"
    )
    assert raise_offenders(tmp_path) == ["errors:8 AttributeError", "kernel:15 AssertionError", "kernel:16 ValueError"]


# module.qualname -> why it calls int(): every integer written as text, in
# a spec or on argv, goes through the reader, forge.spec_number, which takes
# ASCII digits only (int() also reads "+3", "1_7" and other scripts' digits);
# the other calls read no text
INT_CALLS = {
    "forge.spec_number": "the reader: an optional '-' and at most DIGITS_MAX ASCII digits",
    "gf.elem": "reduces coefficients given as integers mod p",
    "forge._coxeter_frame": "int(r == j): the identity block of the augmented matrix",
}


def int_reads(src=SRC):
    """module.qualname of every src function that calls int() (a nested
    function's calls count for its enclosing one), and module:line of every
    int() call outside a function and of every type=int keyword."""
    found = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        calls = {id(n): n for n in ast.walk(tree) if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "int"}
        for qualname, _, node in definitions(tree):
            inside = [] if isinstance(node, ast.ClassDef) else [id(n) for n in ast.walk(node) if id(n) in calls]
            if inside:
                found.add(f"{path.stem}.{qualname}")
            for key in inside:
                del calls[key]
        found |= {f"{path.stem}:{n.lineno}" for n in calls.values()}
        found |= {
            f"{path.stem}:{n.value.lineno}"
            for n in ast.walk(tree)
            if isinstance(n, ast.keyword) and n.arg == "type" and getattr(n.value, "id", None) == "int"
        }
    return found


def test_every_int_call_is_the_reader_or_named():
    assert sorted(int_reads()) == sorted(INT_CALLS)


def test_int_guard_sees_a_new_reader(tmp_path):
    (tmp_path / "flags.py").write_text(
        "import argparse\n\n\ndef build(p):\n    p.add_argument('--k', type=int)\n\n\n"
        "class Reader:\n    def read(self, text):\n        def inner():\n            return int(text)\n"
        "        return inner()\n\n\nLIMIT = int('5')\n"
    )
    assert sorted(int_reads(tmp_path)) == ["flags.Reader.read", "flags:15", "flags:5"]
