"""Repo lint: every name a ``src/`` module imports is used.

No linter is installed or run, so this scan is the check: for each
module under ``src/``, the names its ``import`` statements bind must be
read somewhere in it — as a name, the base of an attribute, inside a
quoted annotation (``Optional["MetricsRegistry"]``) — or be re-exported
through the module's ``__all__``.  ``from __future__`` imports bind
nothing and are skipped.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC_ROOT = Path(__file__).resolve().parent.parent / "src"


def _annotation_names(tree: ast.AST):
    """Names read inside the quoted annotations of ``tree``."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
            arguments = node.args
            for argument in (
                *arguments.posonlyargs, *arguments.args,
                *arguments.kwonlyargs, arguments.vararg, arguments.kwarg,
            ):
                if argument is not None:
                    annotations.append(argument.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names = set()
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _loaded_names(ast.parse(node.value, mode="eval"))
    return names


def _loaded_names(tree: ast.AST):
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def _exported(tree: ast.Module):
    """The string entries of a module-level ``__all__``."""
    names = set()
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(getattr(target, "id", None) == "__all__" for target in targets):
            names |= {
                element.value
                for element in ast.walk(node.value)
                if isinstance(element, ast.Constant)
            }
    return names


def unused_imports(source: str):
    """``(line, name)`` of each imported name ``source`` never reads."""
    tree = ast.parse(source)
    used = _loaded_names(tree) | _annotation_names(tree) | _exported(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``.
                name = alias.asname or alias.name.split(".")[0]
                if name != "*" and name not in used:
                    unused.append((node.lineno, name))
    return unused


def test_src_modules_use_what_they_import():
    found = [
        f"{path.relative_to(SRC_ROOT.parent).as_posix()}:{line}: {name}"
        for path in sorted(SRC_ROOT.rglob("*.py"))
        for line, name in unused_imports(path.read_text())
    ]
    assert not found, "imported and never used:\n" + "\n".join(found)


def test_lint_sees_an_unused_import():
    """Self-test: what is unused is reported, what is used is not."""
    source = (
        "from typing import List, Optional, Sequence\n"
        "import numpy as np\n"
        "import os.path\n"
        "from repro.obs.registry import MetricsRegistry\n"
        "from repro.search.topk import SearchHit\n"
        "__all__ = ['SearchHit']\n"
        "def f(metrics: Optional['MetricsRegistry']) -> List[int]:\n"
        "    return os.path.sep\n"
    )
    assert unused_imports(source) == [(1, "Sequence"), (2, "np")]
