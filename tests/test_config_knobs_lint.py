"""Repo lint: every field of a configuration class has a setter.

Each settable field multiplies the configurations the characterization
numbers must hold for.  A field that no call under ``src/``,
``benchmarks/``, ``examples/`` or ``tests/`` ever passes is a constant
behind an option: declare it as a constant at its use site instead.

A field counts as set when some call passes a keyword of its name or
when a call to the class itself passes it by position.  Forwarding a
value under its own name (``x=config.x``) sets nothing.  Keywords are
matched by name alone, so a field whose name some other call passes
(another class's field, a function's parameter) is not caught.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

from repro import api
from repro.api import (
    AimdConfig,
    AutoscaleConfig,
    BreakerConfig,
    CapacityModel,
    ClusterConfig,
    CorpusConfig,
    DeadlineScheduler,
    DiurnalArrivals,
    EngineConfig,
    ExecutionConfig,
    FaultPlan,
    HedgingPolicy,
    OverloadPolicy,
    PartitionModelConfig,
    QueryLogConfig,
    StorageModelConfig,
    TieredStorageConfig,
    VocabularyConfig,
)
from repro.cluster.fanout import FanoutConfig

REPO_ROOT = Path(__file__).resolve().parent.parent
TREES = ("src", "benchmarks", "examples", "tests")

CONFIG_CLASSES = (
    AimdConfig,
    AutoscaleConfig,
    BreakerConfig,
    CapacityModel,
    ClusterConfig,
    CorpusConfig,
    DeadlineScheduler,
    DiurnalArrivals,
    EngineConfig,
    ExecutionConfig,
    FanoutConfig,
    FaultPlan,
    HedgingPolicy,
    OverloadPolicy,
    PartitionModelConfig,
    QueryLogConfig,
    StorageModelConfig,
    TieredStorageConfig,
    VocabularyConfig,
)


def _callee(call: ast.Call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _forwards(keyword: ast.keyword) -> bool:
    """``x=<anything>.x``: a value passed on, not chosen."""
    value = keyword.value
    return isinstance(value, ast.Attribute) and value.attr == keyword.arg


def _setters(roots):
    """Keyword names passed anywhere, and the most leading positional
    arguments any call passes, by callee name."""
    keywords, positional = set(), {}
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                keywords.update(
                    keyword.arg
                    for keyword in node.keywords
                    if keyword.arg is not None and not _forwards(keyword)
                )
                name = _callee(node)
                leading = 0
                for argument in node.args:
                    if isinstance(argument, ast.Starred):
                        break
                    leading += 1
                if name is not None and leading:
                    positional[name] = max(positional.get(name, 0), leading)
    return keywords, positional


def _call_names(cls) -> set:
    """The class's own name plus every name ``repro.api`` binds it to."""
    return {cls.__name__} | {
        name for name, value in vars(api).items() if value is cls
    }


def _unset_fields(roots, classes=CONFIG_CLASSES):
    keywords, positional = _setters(roots)
    found = []
    for cls in classes:
        reach = max(positional.get(name, 0) for name in _call_names(cls))
        init = [field for field in dataclasses.fields(cls) if field.init]
        by_position = [field for field in init if not field.kw_only]
        for field in init:
            if field.name in keywords:
                continue
            if field in by_position and by_position.index(field) < reach:
                continue
            found.append(f"{cls.__name__}.{field.name}")
    return found


def test_every_config_field_has_a_setter():
    unset = _unset_fields([REPO_ROOT / tree for tree in TREES])
    assert not unset, (
        "config fields no call sets — make each a constant read at its "
        "use site and delete the field:\n" + "\n".join(unset)
    )


@dataclasses.dataclass(frozen=True)
class _Planted:
    by_position: int = 0
    by_keyword: int = 0
    forwarded: int = 0
    never: int = 0


@dataclasses.dataclass(frozen=True, kw_only=True)
class _PlantedKeywordOnly:
    only: int = 0


def test_lint_actually_detects(tmp_path):
    """A forwarded-only field, a never-set field and a keyword-only
    field given a positional argument are caught; fields set by keyword
    or by position, and a setter in a comment, are not."""
    (tmp_path / "caller.py").write_text(
        "_Planted(1, by_keyword=2)\n"
        "other(forwarded=config.forwarded)\n"
        "_PlantedKeywordOnly(1)\n"
        "# _Planted(never=1) in a comment sets nothing\n"
    )
    classes = (_Planted, _PlantedKeywordOnly)
    assert _unset_fields([tmp_path], classes=classes) == [
        "_Planted.forwarded",
        "_Planted.never",
        "_PlantedKeywordOnly.only",
    ]
