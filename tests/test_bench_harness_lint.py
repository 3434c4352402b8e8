"""Repo lint: one bench harness.

Every figure bench once had two ways to run (a pytest test and an
argparse ``main(--quick)`` that CI called) and ``BENCH_*.json`` had two
writers.  pytest plus ``benchmarks/conftest.py`` is the only runner
now and its ``emit`` fixture the only writer — it writes when the test
that called it has passed, which it can only know for a call made from
inside a test.  This pins the greppable part of that, and that CI
stays a handful of steps.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_ROOT = REPO_ROOT / "benchmarks"

SECOND_RUNNER = re.compile(r"\bargparse\b|__main__|\bwrite_bench_json\b")
DELETED = ("_structured.py", "bench_micro_engine.py")
MAX_CI_RUN_STEPS = 9
CI_MUST_RUN = (
    "benchmarks/perf/test_perf_bench.py",
    "repro.resilience.explore",
    "-W error::DeprecationWarning",
)


def _violations(root: Path = BENCH_ROOT):
    found = []
    for path in sorted(root.glob("bench_*.py")):
        source = path.read_text()
        for number, line in enumerate(source.splitlines(), start=1):
            if SECOND_RUNNER.search(line):
                found.append(f"{path.name}:{number}: {line.strip()}")
        for function in ast.walk(ast.parse(source)):
            if not isinstance(function, ast.FunctionDef):
                continue
            for node in ast.walk(function):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "emit"
                    and not function.name.startswith("test_")
                ):
                    found.append(
                        f"{path.name}:{node.lineno}: emit( outside a test "
                        f"(in {function.name})"
                    )
    found.extend(
        f"{name} is back" for name in DELETED if (root / name).exists()
    )
    return found


def test_one_bench_harness():
    violations = _violations()
    assert not violations, (
        "a second way to run or write a figure bench — make it a pytest "
        "test that takes the `quick` and `emit` fixtures of "
        "benchmarks/conftest.py instead:\n" + "\n".join(violations)
    )


def test_ci_stays_small():
    workflow = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
    assert workflow.count("run:") <= MAX_CI_RUN_STEPS
    for needle in CI_MUST_RUN:
        assert needle in workflow, f"CI no longer runs {needle}"


def test_lint_actually_detects(tmp_path):
    """The lint is live: planted violations are caught, a test's own
    ``emit`` call is not."""
    (tmp_path / "bench_ok.py").write_text(
        "def test_fig0_ok(emit):\n    emit('fig0_ok', 'table')\n"
    )
    (tmp_path / "bench_two_ways.py").write_text(
        "import argparse\n"
        "def _report(emit):\n    emit('fig0_two_ways', 'table')\n"
        "if __name__ == '__main__':\n    main()\n"
    )
    (tmp_path / "_structured.py").write_text("")
    found = _violations(tmp_path)
    assert len(found) == 4, found
    assert not any("bench_ok.py" in violation for violation in found)
