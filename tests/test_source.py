"""Checks on the package source itself."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "braidcensus"


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
