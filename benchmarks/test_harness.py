"""The harness's own contract: ``emit`` writes on pass, and only then;
an ``OUT_OF_REGIME`` bench is expected to fail its gate, not to crash.

Runs a dummy bench in a child pytest with this directory's
``conftest.py`` loaded as a plugin and ``bench_root`` overridden to a
temporary directory, so the tracked results are never touched.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent

DUMMY_BENCH = '''
from pathlib import Path

import pytest


@pytest.fixture()
def bench_root():
    return Path(__file__).parent


def test_fig901_passes(emit):
    emit("fig901_dummy", "a table", data={"seed": 7, "rows": [1, 2]})


def test_fig902_fails(emit):
    emit("fig902_dummy", "a wrong table", data={"seed": 7})
    assert False, "gate"
'''

#: Named after two ``OUT_OF_REGIME`` entries: a failed assert is the
#: expected failure, any other exception is a bug in the bench.
OUT_OF_REGIME_BENCH = '''
def test_fig22_mixed_fleet():
    assert False, "gate"


def test_fig4_partitioning_tail():
    raise TypeError("crash")
'''

TRACKED = {
    "BENCH_fig901.json": '{"old": true}\n',
    "BENCH_fig902.json": '{"old": true}\n',
    "benchmarks/results/fig901_dummy.txt": "[stale: old]\n",
    "benchmarks/results/fig902_dummy.txt": "[stale: old]\n",
}


def _pytest(root, source, *options):
    (root / "test_dummy_bench.py").write_text(source)
    return subprocess.run(
        [
            sys.executable, "-m", "pytest", "test_dummy_bench.py",
            "-p", "conftest", "-p", "no:cacheprovider", "-q", "-s", *options,
        ],
        cwd=root,
        env={
            **os.environ,
            "PYTHONPATH": f"{BENCH_DIR}:{BENCH_DIR.parent / 'src'}",
        },
        capture_output=True,
        text=True,
    )


def _run_dummy(root, *options):
    (root / "benchmarks" / "results").mkdir(parents=True)
    for name, content in TRACKED.items():
        (root / name).write_text(content)
    done = _pytest(root, DUMMY_BENCH, *options)
    assert "1 passed" in done.stdout and "1 failed" in done.stdout, (
        done.stdout + done.stderr
    )
    assert "a table" in done.stdout  # printed whatever the outcome
    return {name: (root / name).read_text() for name in TRACKED}


def test_full_run_writes_the_passing_bench_only(tmp_path):
    after = _run_dummy(tmp_path)
    for name in ("BENCH_fig902.json", "benchmarks/results/fig902_dummy.txt"):
        assert after[name] == TRACKED[name]
    assert after["benchmarks/results/fig901_dummy.txt"] == "a table\n"
    envelope = json.loads(after["BENCH_fig901.json"])
    assert set(envelope) == {
        "figure", "quick", "seed", "git_sha", "host", "python", "wall_s",
        "data",
    }
    assert envelope["figure"] == "fig901"
    assert envelope["quick"] is False
    assert envelope["seed"] == 7
    assert envelope["wall_s"] >= 0.0
    assert envelope["data"] == {"seed": 7, "rows": [1, 2]}


def test_quick_run_writes_nothing(tmp_path):
    assert _run_dummy(tmp_path, "--quick") == TRACKED


def test_out_of_regime_xfails_a_failed_gate_but_not_a_crash(tmp_path):
    done = _pytest(tmp_path, OUT_OF_REGIME_BENCH, "-rfx")
    summary = done.stdout + done.stderr
    assert "1 failed" in done.stdout and "1 xfailed" in done.stdout, summary
    assert "FAILED test_dummy_bench.py::test_fig4_partitioning_tail" in (
        done.stdout
    ), summary
    assert "XFAIL test_dummy_bench.py::test_fig22_mixed_fleet" in (
        done.stdout
    ), summary
