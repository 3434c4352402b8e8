"""Every ``repro`` name the examples and benches import must exist.

Tier-1 collects only ``tests/``, and CI runs the examples and a few
figure benches, not all of them: a deleted or renamed ``src/`` name
that only ``benchmarks/bench_fig1*.py`` imports would pass every other
check.  This parses each script with ``ast`` (imports inside functions
included) and resolves each ``from repro... import name`` and
``import repro...`` against the package.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted(
    list((REPO_ROOT / "examples").glob("*.py"))
    + list((REPO_ROOT / "benchmarks").glob("*.py"))
    + list((REPO_ROOT / "benchmarks" / "perf").glob("*.py"))
)


def _unresolved(path: Path):
    """``file:line: module.name`` for each import of ``path`` that does
    not resolve."""
    missing = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            targets = [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            targets = [(alias.name, None) for alias in node.names]
        else:
            continue
        where = f"{path.name}:{node.lineno}"
        for module_name, name in targets:
            if module_name != "repro" and not module_name.startswith("repro."):
                continue
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                missing.append(f"{where}: {module_name}")
                continue
            if name is None or hasattr(module, name):
                continue
            try:
                importlib.import_module(f"{module_name}.{name}")
            except ImportError:
                missing.append(f"{where}: {module_name}.{name}")
    return missing


def test_scripts_are_found():
    names = {path.name for path in SCRIPTS}
    assert "quickstart.py" in names
    assert "bench_fig1_service_time_distribution.py" in names
    assert "workloads.py" in names


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda path: path.name)
def test_every_repro_import_resolves(path):
    assert _unresolved(path) == []


def test_lint_actually_detects(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text(
        "from repro.api import SearchEngine, NoSuchName\n"
        "import repro.no_such_module\n"
        "def later():\n"
        "    from repro.index import inverted, no_such_submodule\n"
    )
    assert _unresolved(planted) == [
        "planted.py:1: repro.api.NoSuchName",
        "planted.py:2: repro.no_such_module",
        "planted.py:4: repro.index.no_such_submodule",
    ]
