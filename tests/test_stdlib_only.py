"""The library has no runtime dependencies: it imports only the standard
library and itself."""

from __future__ import annotations

import ast
import pathlib
import sys

import snarkppm

PACKAGE = pathlib.Path(snarkppm.__file__).parent


def _absolute_imports(path: pathlib.Path) -> list[tuple[int, str]]:
    """(line, top-level module) of every absolute import in the file."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            out += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.append((node.lineno, node.module.split(".")[0]))
    return out


def test_modules_import_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 10
    outside = [
        f"{path.relative_to(PACKAGE)}:{line}: {name}"
        for path in modules
        for line, name in _absolute_imports(path)
        if name not in sys.stdlib_module_names
    ]
    assert not outside, outside
