"""The library has no runtime dependencies: it imports only the standard
library and itself. It carries no dead imports, private parameters or
unreferenced private helpers."""

from __future__ import annotations

import ast
import pathlib
import sys
from collections import Counter

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


def _references(tree: ast.AST) -> Counter[str]:
    """How often the tree reads each name: as a bare name, an attribute or
    an import."""
    out: Counter[str] = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def test_every_private_helper_is_referenced():
    # A private function, method or class (a leading underscore, not a
    # dunder) must be read somewhere in the package outside its own body.
    trees = {
        path.relative_to(PACKAGE): ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    used = sum(map(_references, trees.values()), Counter())
    dead = [
        f"{path}:{node.lineno}: {node.name}"
        for path, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.endswith("__")
        and used[node.name] == _references(node)[node.name]
    ]
    assert not dead, dead
