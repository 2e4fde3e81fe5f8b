"""Checks on the package source itself."""

import ast
import pathlib
import subprocess
import sys

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


def test_the_command_line_loads_no_unused_module_at_start_up():
    """Every CLI command is a fresh interpreter that pays for each module
    it imports: ``dataclasses`` (which brings ``inspect``) is not used,
    ``multiprocessing`` only under ``--workers`` > 1, where ``census``
    imports it, and the command line is read without ``argparse`` (which
    brings ``gettext`` and ``locale``).  Checked after the import and again
    after a census in the same interpreter."""
    code = (
        "import sys; sys.path.insert(0, %r); import braidcensus.cli; "
        "sys.stderr.write(' '.join(sorted(sys.modules)) + '\\n'); "
        "braidcensus.cli.main(['census', '3', '5']); "
        "sys.stderr.write(' '.join(sorted(sys.modules)) + '\\n')" % str(SRC.parent)
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", code],
        capture_output=True, text=True, check=True,
    )
    assert '"command": "census"' in proc.stdout
    unused = {"dataclasses", "inspect", "multiprocessing", "argparse", "gettext", "locale"}
    loaded = proc.stderr.splitlines()
    assert len(loaded) == 2
    for line in loaded:
        out = line.split()
        assert "braidcensus.cli" in out
        assert unused & set(out) == set()


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


def test_every_top_level_definition_is_used():
    """Each function and class defined at the top level of the package is
    named somewhere outside its own definition: in the package, the tests or
    the benchmark.  A helper that nothing names any more is dead code."""
    root = TESTS.parent
    files = sorted(SRC.glob("*.py"))
    files += sorted(TESTS.glob("*.py")) + sorted((root / "bench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in files}

    def names(node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield sub.attr
            elif isinstance(sub, ast.alias):
                yield sub.name
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                yield sub.value

    named = {
        id(node): set(names(node)) for tree in trees.values() for node in tree.body
    }
    unused = [
        "%s:%s" % (path.name, node.name)
        for path in sorted(SRC.glob("*.py"))
        for node in trees[path].body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not any(
            node.name in found for key, found in named.items() if key != id(node)
        )
    ]
    assert unused == []
