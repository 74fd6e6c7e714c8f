"""The runtime package imports nothing outside the standard library, so
`dependencies = []` in pyproject.toml stays true."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "deckpoly").glob("*.py"))


def absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_the_standard_library():
    assert SOURCES
    outside = {(path.name, name) for path in SOURCES for name in absolute_imports(path)
               if name.split(".")[0] not in sys.stdlib_module_names}
    assert outside == set()
