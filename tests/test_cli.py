"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main

FAST = ["--docs", "300"]


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_defaults(self):
        args = build_parser().parse_args(["characterize"])
        assert args.docs == 1_500
        assert args.queries == 150

    def test_partition_list(self):
        args = build_parser().parse_args(
            ["partition-sweep", "--partitions", "1", "4", "16"]
        )
        assert args.partitions == [1, 4, 16]


class TestCommands:
    def test_quickstart(self, capsys):
        assert main(FAST + ["quickstart", "--queries", "2"]) == 0
        output = capsys.readouterr().out
        assert "indexed 300 documents" in output
        assert "hits in" in output

    def test_characterize(self, capsys):
        assert main(FAST + ["characterize", "--queries", "40"]) == 0
        output = capsys.readouterr().out
        assert "Service-time characterization" in output
        assert "p99/p50" in output

    def test_partition_sweep(self, capsys):
        assert (
            main(
                FAST
                + [
                    "partition-sweep",
                    "--partitions", "1", "4",
                    "--sim-queries", "800",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "Latency vs partitions" in output
        assert "p99_ms" in output

    def test_lowpower(self, capsys):
        assert (
            main(
                FAST
                + [
                    "lowpower",
                    "--partitions", "1", "8",
                    "--sim-queries", "800",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "xeon-e5" in output
        assert "atom-c2750" in output

    def test_capacity(self, capsys):
        assert (
            main(
                FAST
                + [
                    "capacity",
                    "--partitions", "2",
                    "--sim-queries", "600",
                    "--qos-ms", "50",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "Max throughput" in output

    def test_capacity_plan(self, capsys):
        assert (
            main(FAST + ["capacity", "--target-qps", "120", "--slo-ms", "250"])
            == 0
        )
        output = capsys.readouterr().out
        assert "Capacity plan: 120 qps" in output
        assert "replica(s) per shard" in output

    def test_cache(self, capsys):
        assert main(FAST + ["cache"]) == 0
        output = capsys.readouterr().out
        assert "hit_rate" in output

    def test_profile_log(self, capsys):
        assert main(FAST + ["profile-log"]) == 0
        output = capsys.readouterr().out
        assert "Query-log profile" in output
        assert "Term-count mix" in output

    def test_trace(self, capsys):
        assert main(FAST + ["trace", "--partitions", "2"]) == 0
        output = capsys.readouterr().out
        assert "isn.execute" in output
        assert "├─ parse" in output
        assert "└─ merge" in output
        assert "shard" in output
        assert "Serving-path counters" in output
        assert "isn.queries" in output

    def test_trace_exports(self, capsys, tmp_path):
        import csv
        import json

        jsonl = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.csv"
        assert (
            main(
                FAST
                + [
                    "trace", "--partitions", "2",
                    "--jsonl", str(jsonl),
                    "--metrics-csv", str(metrics),
                ]
            )
            == 0
        )
        spans = [json.loads(line) for line in jsonl.read_text().splitlines()]
        assert spans[0]["name"] == "isn.execute"
        assert spans[0]["parent_id"] is None
        with open(metrics, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert any(row["metric"] == "isn.queries" for row in rows)

    def test_trace_hedged(self, capsys):
        assert (
            main(
                FAST
                + [
                    "trace", "--partitions", "2",
                    "--hedge-delay-ms", "5",
                    "--deadline-ms", "200",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "hedges issued" in output
        assert "attempt=primary" in output
        assert "isn.deadline_misses" in output

    def test_trace_tiered(self, capsys):
        assert (
            main(
                FAST
                + ["trace", "--partitions", "2", "--tiered-cache-kib", "16"]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "blocks_fetched=" in output
        assert "store.bytes_read" in output

    def test_trace_explicit_query(self, capsys):
        assert main(FAST + ["trace", "benchmark search", "--k", "3"]) == 0
        output = capsys.readouterr().out
        assert "'benchmark search'" in output

    def test_report_to_stdout(self, capsys):
        assert main(FAST + ["report", "--queries", "30"]) == 0
        output = capsys.readouterr().out
        assert "# Web search benchmark characterization report" in output

    def test_health_threads(self, capsys):
        assert main(FAST + ["health", "--breakers"]) == 0
        output = capsys.readouterr().out
        assert "Node health" in output
        assert "threads" in output
        assert "breaker shard 0" in output
        assert "CLOSED" in output

    def test_health_processes(self, capsys):
        assert (
            main(
                FAST
                + ["--backend", "processes", "--workers", "2", "health"]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "live workers" in output
        assert "2/2" in output
        assert "alive" in output

    def test_chaos_dry_run(self, capsys):
        assert main(["chaos", "--dry-run"]) == 0
        output = capsys.readouterr().out
        assert "chaos plan" in output
        assert "crash" in output
        assert "dry run" in output

    def test_chaos_run(self, capsys):
        assert (
            main(
                [
                    "chaos",
                    "--sim-queries", "400",
                    "--rate", "200",
                    "--servers", "2",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "Chaos run" in output
        assert "protected" in output
        assert "goodput" in output
        assert "breaker skips" in output

    def test_chaos_unprotected(self, capsys):
        assert (
            main(
                [
                    "chaos",
                    "--sim-queries", "400",
                    "--rate", "200",
                    "--servers", "2",
                    "--unprotected",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "unprotected" in output

    def test_report_to_file(self, capsys, tmp_path):
        path = tmp_path / "report.md"
        assert (
            main(FAST + ["report", "--queries", "30", "--output", str(path)])
            == 0
        )
        assert "written to" in capsys.readouterr().out
        assert path.read_text().startswith("# Web search benchmark")

    def test_predict(self, capsys):
        assert main(FAST + ["predict", "--queries", "60"]) == 0
        output = capsys.readouterr().out
        assert "Service-time predictor calibration" in output
        assert "holdout MAPE (%)" in output
        assert "Routing demo" in output
