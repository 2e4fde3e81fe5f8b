"""Checks on the package source itself."""

import ast
import pathlib

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "braidcensus"


def test_runtime_invariants_are_real_exceptions():
    """``assert`` vanishes under ``python -O``, so no invariant of the
    package may rest on one."""
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _names(path):
    """The top-level packages a file imports by absolute name, and the
    functions and classes it defines at its top level."""
    tree = ast.parse(path.read_text(), str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module)
    defined = {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    return {m.split(".")[0] for m in imported}, defined


def test_the_package_and_the_test_oracles_stay_apart():
    """The package imports nothing from the tests, and defines none of the
    names of ``tests/oracles.py``: an exhaustive reference that drifts back
    into the package, or is forked there, no longer checks it from outside."""
    tests = {"tests"} | {path.stem for path in TESTS.glob("*.py")}
    _, oracles = _names(TESTS / "oracles.py")
    for path in sorted(SRC.glob("*.py")):
        imported, defined = _names(path)
        assert imported & tests == set(), path.name
        assert defined & oracles == set(), path.name
