"""Source-level rules for the package itself."""

import ast
from pathlib import Path

import real3x1


def test_invariant_checks_survive_python_O():
    """No invariant is an assert, which python -O would strip."""
    files = sorted(Path(real3x1.__file__).parent.glob("*.py"))
    assert files
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []
