"""The library has no runtime dependencies: it imports only the standard
library and itself. It carries no dead imports or private parameters."""

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


def _loaded(nodes) -> set[str]:
    """Every name read anywhere in the given nodes."""
    return {
        inner.id
        for node in nodes
        for inner in ast.walk(node)
        if isinstance(inner, ast.Name) and isinstance(inner.ctx, ast.Load)
    }


def _dead_names(path: pathlib.Path) -> list[str]:
    """Module-level imports the module never uses (an ``__init__.py``
    re-exports, so it is exempt), and parameters of private functions that
    their bodies never read."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    out = []
    if path.name != "__init__.py":
        used = _loaded([tree])
        for node in tree.body:
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        out.append(f"{node.lineno}: import {name}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.FunctionDef)
            and node.name.startswith("_")
            and not node.name.endswith("__")
        ):
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [a for a in (args.vararg, args.kwarg) if a is not None]
            read = _loaded(node.body)
            out += [f"{node.lineno}: {node.name}({a.arg})" for a in params if a.arg not in read]
    return out


def test_no_unused_imports_or_private_parameters():
    dead = [
        f"{path.relative_to(PACKAGE)}:{line}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for line in _dead_names(path)
    ]
    assert not dead, dead
