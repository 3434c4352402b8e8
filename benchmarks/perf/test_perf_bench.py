"""Self-tests of the performance benchmark.

Run explicitly (tier-1 ``testpaths`` stays ``tests/``):

    PYTHONPATH=src python -m pytest benchmarks/perf/test_perf_bench.py -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import catalogue  # noqa: E402
import compare  # noqa: E402
import estimator  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# ----------------------------------------------------------------------
# the estimator


class BurstyClock:
    """A synthetic clock whose CPU slows by 40% in 6 s bursts every 15 s,
    with one-sided per-call jitter on top."""

    def __init__(self):
        import random

        self.now = 0.0
        self._random = random.Random(7)

    def __call__(self) -> float:
        return self.now

    def spend(self, cost: float) -> None:
        slowdown = 1.4 if self.now % 15.0 < 6.0 else 1.0
        self.now += cost * slowdown * (1.0 + self._random.random() * 0.1)


def test_floor_recovers_cost_under_burst_noise():
    clock = BurstyClock()
    costs = [0.002 + 0.0001 * (i % 40) for i in range(300)]
    measured = estimator.measure(
        ops=list(range(len(costs))),
        run_op=lambda op: clock.spend(costs[op]),
        check=lambda op, output: None,
        seconds=35.0,
        clock=clock,
    )
    assert measured.rounds >= 8 and measured.failed == 0
    for floor, cost in zip(measured.floors_s, costs):
        assert cost <= floor <= cost * 1.05
    metrics = estimator.latency_metrics(measured.floors_s, work_per_op=1)
    assert metrics["qps"] == pytest.approx(len(costs) / sum(costs), rel=0.02)
    # The statistic the floor replaces: whole-window throughput is off
    # by the bursts' share of the window.
    raw = measured.attempted / measured.window_s
    assert raw < 0.9 * len(costs) / sum(costs)


def test_failed_ops_are_counted_and_contribute_no_sample():
    clock = BurstyClock()

    def run_op(op):
        clock.spend(0.001)
        if op == 1:
            raise RuntimeError("boom")
        return op

    measured = estimator.measure(
        [0, 1, 2], run_op,
        lambda op, output: "bad digest" if op == 2 else None,
        seconds=0.05, clock=clock,
    )
    assert measured.failed == 2 * measured.attempted // 3
    assert not measured.complete
    assert measured.failures[0].startswith("RuntimeError")


def test_window_closes_on_time_and_after_one_full_round():
    clock = BurstyClock()
    slow = estimator.measure(
        list(range(10)), lambda op: clock.spend(1.0),
        lambda op, output: None, seconds=2.0, clock=clock,
    )
    assert slow.rounds == 1 and slow.complete
    quick = estimator.measure(
        list(range(10)), lambda op: clock.spend(0.001),
        lambda op, output: None, seconds=100.0, max_rounds=2, clock=clock,
    )
    assert quick.rounds == 2


def test_noisy_flag_needs_three_clean_rounds():
    assert estimator.round_diagnostics([1.0, 1.3, 1.4, 1.5])["noisy"]
    clean = estimator.round_diagnostics([1.0, 1.01, 1.04, 1.5])
    assert not clean["noisy"] and clean["clean_rounds"] == 3


def test_percentile_interpolates():
    assert estimator.percentile([1, 2, 3, 4, 5], 50) == 3
    assert estimator.percentile([0, 10], 95) == pytest.approx(9.5)


# ----------------------------------------------------------------------
# names and the manifest


def test_names_and_units_are_well_formed_and_unique():
    names = (
        [name for name, *_ in catalogue.END_TO_END]
        + [name for name, *_ in catalogue.PER_LAYER]
        + list(workloads.WORKLOADS)
    )
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    units = [unit for _, unit, *_ in catalogue.END_TO_END + catalogue.PER_LAYER]
    assert all(UNIT.match(unit) for unit in units)


def test_manifest_matches_catalogue_and_workloads():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert manifest["paths"] == ["benchmarks/perf"]
    assert manifest["command"] == ["python3", "benchmarks/perf/run.py"]
    assert [(w["name"], w["why"]) for w in manifest["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in manifest["end_to_end"]
    ] == list(catalogue.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]
    ] == list(catalogue.PER_LAYER)
    assert any(m["name"] == "setup_s" for m in manifest["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in manifest["workloads"])


def test_every_per_layer_metric_has_a_producer():
    produced = {name for names, _ in layers.PROBES for name in names}
    produced |= set(layers.SPAN_METRICS.values())
    produced |= {
        "trace.spans_per_op", "trace.overhead_pct", "noise.rounds",
        "noise.round_spread", "raw.qps_median_round",
    }
    assert produced == set(catalogue.PER_LAYER_UNITS)


def test_replay_order_is_a_seeded_permutation():
    population = [workloads.Op(str(i), i) for i in range(50)]
    first = workloads.replay_order(population, 4)
    assert first == workloads.replay_order(population, 4)
    assert first != workloads.replay_order(population, 5)
    assert sorted(op.payload for op in first) == list(range(50))


# ----------------------------------------------------------------------
# the command, end to end (quick scale)


def run_benchmark(tmp_path, *extra, cwd=ROOT, script=HERE / "run.py"):
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, str(script), "--out-dir", str(tmp_path), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return completed, time.perf_counter() - started


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("quick")
    runs = {}
    for position, name in enumerate(workloads.WORKLOADS):
        completed, elapsed = run_benchmark(
            out, "--quick", "--workload", name, "--seed", str(20 + position)
        )
        assert completed.returncode == 0, completed.stderr
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        record = json.loads(
            (out / f"run_{name}_seed{20 + position}.json").read_text()
        )
        runs[name] = (result, record, elapsed)
    return runs


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_quick_run_schema_time_and_digests(quick_runs, name):
    result, record, elapsed = quick_runs[name]
    assert elapsed < 15.0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 2 * record["distinct_ops"]
    assert list(result["metrics"]) == [n for n, *_ in catalogue.END_TO_END]
    for metric, (_, unit, _, _) in zip(
        result["metrics"].values(), catalogue.END_TO_END
    ):
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == unit and metric["value"] > 0
    for key in (
        "seed", "git_sha", "host", "nproc", "python", "numpy", "wall_s",
        "window_s", "rounds", "ops", "noisy", "error_rate", "claim",
    ):
        assert key in record
    assert record["claim"] is None and record["error_rate"] == 0.0
    assert list(record)[-1] == "claim"


def test_native_workloads_share_one_digest_table(quick_runs):
    """daat 1p == block_max_wand 1p == daat 2p processes, bit for bit:
    all three passed against the same recorded table."""
    expected = json.loads((HERE / "expected.json").read_text())
    assert set(expected["quick"]) == {"native", "des"}
    for name in ("daat_1p", "bmw_1p", "daat_2p_procs"):
        assert workloads.WORKLOADS[name].family == "native"
        assert quick_runs[name][0]["correct"] is True


def test_same_seed_gives_same_inputs_and_digests(tmp_path, quick_runs):
    completed, _ = run_benchmark(
        tmp_path, "--quick", "--workload", "des_sweep", "--seed", "23"
    )
    again = json.loads(completed.stdout.strip().splitlines()[-1])
    first = quick_runs["des_sweep"][0]
    assert again["correct"] and again["attempted"] == first["attempted"]


def test_traced_run_emits_every_per_layer_metric(tmp_path):
    completed, _ = run_benchmark(
        tmp_path, "--quick", "--workload", "daat_2p_procs", "--trace", "1"
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert list(result["metrics"]) == [n for n, *_ in catalogue.PER_LAYER]
    record = json.loads(
        (tmp_path / "trace_daat_2p_procs_seed3.json").read_text()
    )
    assert record["probes_skipped"] == {}
    assert all(m["value"] is not None for m in record["metrics"].values())
    assert record["metrics"]["trace.mp_dispatch_us"]["value"] > 0
    assert record["metrics"]["trace.search_traverse_us"]["value"] == 0
    spans = [
        json.loads(line)
        for line in (tmp_path / "trace_daat_2p_procs.jsonl").open()
    ]
    assert len(spans) == record["spans"]
    assert {"id", "name", "start", "end", "parent", "op"} == set(spans[0])
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        if span["parent"] >= 0:
            parent = by_id[span["parent"]]
            assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]


def session_members(session_id):
    """Pids of every process (zombies too) in the given session."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rpartition(")")[2].split()
        except OSError:
            continue
        if int(fields[3]) == session_id:
            members.append(int(entry))
    return members


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_leaves_no_process_behind(tmp_path, trace):
    """The process backend starts workers and, through its shared-memory
    arena, multiprocessing's resource tracker; all have ended by the time
    the command exits."""
    child = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--out-dir", str(tmp_path),
         "--quick", "--workload", "daat_2p_procs", "--trace", trace],
        cwd=ROOT, stdout=subprocess.DEVNULL, start_new_session=True,
    )
    assert child.wait(timeout=600) == 0
    assert session_members(child.pid) == []


def test_no_result_outside_a_checkout(tmp_path):
    """In a directory holding only the manifest and the benchmark's own
    files the command fails and prints no result."""
    bare = tmp_path / "bare"
    shutil.copytree(
        HERE, bare / "benchmarks" / "perf",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    completed, _ = run_benchmark(
        tmp_path / "out", "--workload", "daat_1p",
        cwd=bare, script=bare / "benchmarks" / "perf" / "run.py",
    )
    assert completed.returncode != 0
    assert "{" not in completed.stdout


# ----------------------------------------------------------------------
# probes and spans


def test_failing_probe_is_skipped_with_its_reason(monkeypatch):
    def renamed(rig):
        raise ImportError("No module named 'repro.search.gone'")

    monkeypatch.setattr(
        layers, "PROBES",
        [(("a.one_us", "a.two_us"), renamed),
         (("b.fine_us",), lambda rig: {"b.fine_us": 1.5})],
    )
    values, skipped = layers.run_probes(rig=None)
    assert values == {"a.one_us": None, "a.two_us": None, "b.fine_us": 1.5}
    assert skipped["a.one_us"].startswith("ImportError: No module named")
    assert set(skipped) == {"a.one_us", "a.two_us"}


def test_span_self_times_and_per_op_floors():
    ticks = iter(range(100))
    recorder = layers.SpanRecorder(clock=lambda: float(next(ticks)))
    for _ in range(2):  # two rounds of one op
        with recorder.span("query", 0):
            with recorder.span("query.parse"):
                pass
            with recorder.span("search.traverse"):
                pass
            with recorder.span("search.traverse"):
                pass
    assert recorder.self_times()[:4] == [4.0, 1.0, 1.0, 1.0]
    floors = recorder.per_op_floors()
    assert floors["total"] == {0: 7.0}
    assert floors["search.traverse"] == {0: 2.0}
    assert floors["glue"] == {0: 4.0}
    assert sum(recorder.self_times()) == 14.0  # == sum of root durations


# ----------------------------------------------------------------------
# compare.py


def write_runs(directory, workload, qps_values):
    directory.mkdir()
    for seed, qps in enumerate(qps_values):
        record = {
            "workload": workload, "correct": True, "failed": 0,
            "metrics": {"qps": {"value": qps, "unit": "1/s"}},
        }
        (directory / f"run_{workload}_seed{seed}.json").write_text(
            json.dumps(record)
        )


def test_compare_verdicts(tmp_path, capsys):
    steady = [100.0, 100.5, 99.5, 100.2, 99.8]
    write_runs(tmp_path / "a", "w", steady)
    write_runs(tmp_path / "same", "w", [v * 1.01 for v in steady])
    write_runs(tmp_path / "slow", "w", [v * 0.70 for v in steady])
    write_runs(tmp_path / "wild", "w", [100.0, 130.0, 75.0, 115.0, 92.0])

    assert compare.main([str(tmp_path / "a"), str(tmp_path / "same")]) == 0
    assert ": ok" in capsys.readouterr().out
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "slow")]) == 1
    out = capsys.readouterr().out
    assert "regression" in out and "base 100" in out
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "wild")]) == 0
    assert "unresolved" in capsys.readouterr().out
    assert compare.main([str(tmp_path / "a")]) == 0
