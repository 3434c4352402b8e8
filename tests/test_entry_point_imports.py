"""Every ``repro`` name the examples and benches import must exist.

Tier-1 collects only ``tests/``, and CI runs the examples and a few
figure benches, not all of them: a deleted or renamed ``src/`` name
that only ``benchmarks/bench_fig1*.py`` imports would pass every other
check.  This parses each script with ``ast`` (imports inside functions
included) and resolves each ``from repro... import name`` and
``import repro...`` against the package, and each ``name.attr`` whose
``name`` such an import binds to a module (``api.ClusterConfig`` after
``from repro import api``).
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path
from types import ModuleType

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted(
    list((REPO_ROOT / "examples").glob("*.py"))
    + list((REPO_ROOT / "benchmarks").glob("*.py"))
    + list((REPO_ROOT / "benchmarks" / "perf").glob("*.py"))
)


def _unresolved(path: Path):
    """``file:line: module.name`` for each import of ``path``, and each
    attribute of a module an import binds, that does not resolve."""
    missing = []
    tree = ast.parse(path.read_text())
    modules = {}  # local name -> the repro module an import binds to it
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            targets = [(node.module, alias) for alias in node.names]
        elif isinstance(node, ast.Import):
            targets = [(alias.name, alias) for alias in node.names]
        else:
            continue
        where = f"{path.name}:{node.lineno}"
        for module_name, alias in targets:
            if module_name != "repro" and not module_name.startswith("repro."):
                continue
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                missing.append(f"{where}: {module_name}")
                continue
            if isinstance(node, ast.Import):
                if alias.asname:
                    modules[alias.asname] = module
                else:
                    modules["repro"] = importlib.import_module("repro")
                continue
            value = _member(module, alias.name)
            if value is None:
                missing.append(f"{where}: {module_name}.{alias.name}")
            elif isinstance(value, ModuleType):
                modules[alias.asname or alias.name] = value
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        chain = [node.attr]
        base = node.value
        while isinstance(base, ast.Attribute):
            chain.append(base.attr)
            base = base.value
        if not isinstance(base, ast.Name) or base.id not in modules:
            continue
        owner = modules[base.id]
        for attr in reversed(chain):
            value = _member(owner, attr)
            if value is None:
                report = f"{path.name}:{node.lineno}: {owner.__name__}.{attr}"
                if report not in missing:
                    missing.append(report)
            if not isinstance(value, ModuleType):
                break
            owner = value
    return missing


def _member(module: ModuleType, name: str):
    """``module.name``, importing it as a submodule if need be; None
    when it is neither."""
    if hasattr(module, name):
        return getattr(module, name)
    try:
        return importlib.import_module(f"{module.__name__}.{name}")
    except ImportError:
        return None


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


def test_lint_resolves_module_attributes(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text(
        "from repro import api\n"
        "import repro.index as index\n"
        "import repro\n"
        "def later():\n"
        "    api.ClusterConfig, api.NoSuchName, index.inverted.NoSuchName\n"
        "    return repro.api.run_autoscaled_cluster, repro.api.Gone\n"
    )
    assert _unresolved(planted) == [
        "planted.py:5: repro.api.NoSuchName",
        "planted.py:5: repro.index.inverted.NoSuchName",
        "planted.py:6: repro.api.Gone",
    ]
