"""The Python snippets in ``README.md`` and ``docs/*.md`` stay current.

Every fenced ``python`` block must parse, and every keyword a block
passes to a :mod:`repro.api` class must be one that class accepts, so
the docs cannot keep showing a retired configuration field.
"""

from __future__ import annotations

import ast
import inspect
import re
from pathlib import Path

from repro import api

REPO_ROOT = Path(__file__).resolve().parent.parent
FENCE = re.compile(r"^```python\n(.*?)^```", re.DOTALL | re.MULTILINE)
KEYWORD_KINDS = (
    inspect.Parameter.POSITIONAL_OR_KEYWORD,
    inspect.Parameter.KEYWORD_ONLY,
)


def _blocks(paths):
    for path in paths:
        for number, match in enumerate(
            FENCE.finditer(path.read_text()), start=1
        ):
            yield f"{path.name}#{number}", match.group(1)


def _accepted(cls) -> set:
    names = {
        parameter.name
        for parameter in inspect.signature(cls).parameters.values()
        if parameter.kind in KEYWORD_KINDS
    }
    if cls is api.SearchEngine:  # SearchEngine(**overrides) fills an EngineConfig
        names |= _accepted(api.EngineConfig)
    return names


def _unknown_keywords(source: str):
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        cls = getattr(api, node.func.id, None)
        if not inspect.isclass(cls):
            continue
        accepted = _accepted(cls)
        for keyword in node.keywords:
            if keyword.arg is not None and keyword.arg not in accepted:
                yield f"{node.func.id}({keyword.arg}=...)"


def _doc_paths():
    return [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]


def test_doc_snippets_pass_only_accepted_keywords():
    blocks = list(_blocks(_doc_paths()))
    assert len(blocks) >= 13
    problems = [
        f"{where}: {call}"
        for where, source in blocks
        for call in _unknown_keywords(source)
    ]
    assert not problems, "\n".join(problems)


def test_snippet_check_actually_detects(tmp_path):
    """A retired field and an unknown engine override are caught; real
    fields, engine overrides and non-``repro.api`` callees are not."""
    (tmp_path / "page.md").write_text(
        "```python\n"
        "HedgingPolicy(deadline_s=0.05, cancel_losers=True)\n"
        "SearchEngine(num_partitions=2, metrics=None, partition_count=2)\n"
        "dict(cancel_losers=True)\n"
        "```\n"
        "```bash\n"
        "HedgingPolicy(not_python=1)\n"
        "```\n"
    )
    blocks = list(_blocks([tmp_path / "page.md"]))
    assert [where for where, _ in blocks] == ["page.md#1"]
    assert list(_unknown_keywords(blocks[0][1])) == [
        "HedgingPolicy(cancel_losers=...)",
        "SearchEngine(partition_count=...)",
    ]
