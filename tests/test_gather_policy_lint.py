"""Repo lint: one module interprets the tail-tolerance policy.

The native ISN and the DES broker once each armed hedges, queued
retries with backoff and fired deadlines in their own code, so the two
could drift apart feature by feature.  Both now drive
:mod:`repro.resilience.gather`'s state machine, and this test keeps the
policy arithmetic there: outside that module (and ``hedging.py``, which
defines it) no ``src/`` code reads a
:class:`~repro.engine.hedging.HedgingPolicy`'s ``resolve_hedge_delay``,
``retry_delay``, ``max_hedges``, ``max_retries`` or ``deadline_s``.
Reading ``hedges_enabled`` (it sizes the ISN's thread pool) or
``hedge_quantile`` (it decides whether a latency tracker is kept) stays
allowed, and so does a scheduler's own ``deadline_s``.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

SRC_ROOT = Path(__file__).resolve().parent.parent / "src"

#: Where the policy may be interpreted: its definition and the machine.
ALLOWED = {"repro/engine/hedging.py", "repro/resilience/gather.py"}
#: Attributes only a policy has.
POLICY_ONLY = {"resolve_hedge_delay", "retry_delay", "max_hedges", "max_retries"}
#: Receivers that name a policy, for the attribute a scheduler shares.
POLICY_RECEIVER = re.compile(r"polic|hedg", re.IGNORECASE)


def _policy_reads(root: Path = SRC_ROOT):
    found = []
    for path in sorted(root.rglob("*.py")):
        name = path.relative_to(root).as_posix()
        if name in ALLOWED:
            continue
        reads = [
            node
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)
            and (
                node.attr in POLICY_ONLY
                or node.attr == "deadline_s"
                and POLICY_RECEIVER.search(ast.unparse(node.value))
            )
        ]
        for node in sorted(reads, key=lambda node: node.lineno):
            found.append(f"{name}:{node.lineno}: {ast.unparse(node)}")
    return found


def test_only_the_gather_machine_reads_the_policy():
    found = _policy_reads()
    assert not found, (
        "policy arithmetic outside repro/resilience/gather.py — feed the "
        "gather machine an event instead:\n" + "\n".join(found)
    )


def test_lint_catches_planted_reads(tmp_path):
    """Self-test: the scan flags what it forbids and nothing else."""
    planted = tmp_path / "repro"
    planted.mkdir()
    (planted / "driver.py").write_text(
        "delay = policy.resolve_hedge_delay(tracker)\n"
        "budget = self.hedging.deadline_s\n"
        "cap = scheduler.deadline_s\n"
        "pool = policy.hedges_enabled\n"
        "backoff = self._policy.retry_delay(0)\n"
    )
    assert _policy_reads(tmp_path) == [
        "repro/driver.py:1: policy.resolve_hedge_delay",
        "repro/driver.py:2: self.hedging.deadline_s",
        "repro/driver.py:5: self._policy.retry_delay",
    ]
