"""src holds no test-only code: every function, class and method defined in
src/afl_lab is referenced from src, exported by __init__, or a named oracle
on the allowlist below; and every name a src module imports is read there."""

import ast
from collections import Counter
from pathlib import Path

import afl_lab

SRC = Path(afl_lab.__file__).resolve().parent

# name -> why src keeps it although no src code references it
ALLOWED = {
    "is_isotropic": "oracle: isotropy by the definition, against the adapted-basis pass",
    "make_tower": "public: validates (p, max_level) and realizes every even level of a tower",
}


def definitions(tree):
    """(qualified name, name, node) of every function, class and method."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out.append((prefix + child.name, child.name, child))
                if isinstance(child, ast.ClassDef):
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
