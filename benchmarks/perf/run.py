"""Noise-floor performance benchmark: one command per workload.

    python3 benchmarks/perf/run.py --workload daat_1p --seed 3 \
        --seconds 20 --trace 0

prints every end-to-end metric by name with its unit, checks every
answer against ``expected.json``, writes a run record with provenance to
``benchmarks/perf/out/`` and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 1`` runs
the traced pipeline and the layer probes instead and prints the
per-layer metrics (see ``layers.py``).  ``README.md`` documents the
method, the metrics and how they interact.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
EXPECTED_PATH = HERE / "expected.json"
DEFAULT_OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import catalogue  # noqa: E402
import estimator  # noqa: E402


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one of the four workloads")
    parser.add_argument("--seed", type=int, default=3,
                        help="replay order of the op population")
    parser.add_argument("--seconds", type=float, default=18.0,
                        help="length of the measurement window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced pipeline + layer probes")
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: 1,500 docs, 2 rounds")
    parser.add_argument("--out-dir", type=Path, default=DEFAULT_OUT)
    parser.add_argument("--record", action="store_true",
                        help="maintenance: rewrite expected.json")
    return parser.parse_args(argv)


def import_program():
    """Put the checkout's ``src`` on the path and import the workloads.

    Exits non-zero, printing no result, when the program is not there
    (a directory holding only the benchmark's own files).
    """
    source = ROOT / "src"
    if not (source / "repro" / "api.py").is_file():
        sys.exit(f"run.py: no program to measure under {source}")
    sys.path.insert(0, str(source))
    import workloads

    return workloads


def peak_rss_mb() -> float:
    """VmHWM of this process plus every live child, in MB."""

    def high_water_kb(pid) -> int:
        try:
            with open(f"/proc/{pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1])
        except OSError:
            pass
        return 0

    pids = ["self"] + [p.pid for p in multiprocessing.active_children()]
    return sum(high_water_kb(pid) for pid in pids) / 1024.0


def child_pids() -> list:
    """Pids of the live or unreaped processes whose parent is this one."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                # "pid (comm) state ppid ..."; comm may hold spaces.
                fields = stat.read().rpartition(")")[2].split()
        except OSError:
            continue
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def stop_children(grace_s: float = 5.0) -> None:
    """Stop every process this run started and wait until each has ended.

    ``SearchEngine.close()`` joins its pool workers, but the shared-memory
    arena starts ``multiprocessing``'s resource tracker, which ignores
    SIGTERM and lives until its parent's pipe closes — that is, past the
    end of the run unless it is stopped and waited for here.
    """
    import signal

    try:
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()
    except Exception:  # private API: the sweep below covers its absence
        pass
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(grace_s)
    for sig in (signal.SIGTERM, signal.SIGKILL):
        pending = child_pids()
        for pid in pending:
            try:
                os.kill(pid, sig)
            except OSError:
                pass
        deadline = time.monotonic() + grace_s
        while pending and time.monotonic() < deadline:
            for pid in list(pending):
                try:
                    if os.waitpid(pid, os.WNOHANG)[0] == pid:
                        pending.remove(pid)
                except ChildProcessError:
                    pending.remove(pid)
            if pending:
                time.sleep(0.01)
        if not pending:
            return


def provenance(args, scale) -> dict:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            capture_output=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "scale": scale.name,
        "docs": scale.docs,
        "trace": bool(args.trace),
        "git_sha": sha,
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def load_expected(scale, family) -> dict:
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)[scale.name][family]


def make_check(workload, expected: dict):
    """The untimed per-op output check: typed failure or digest drift."""

    def check(op, output):
        digest = workload.digest(output)
        if digest is None:
            return f"{op.key}: shed or partial answer"
        if digest != expected.get(op.key):
            return (
                f"{op.key}: digest {digest} != expected "
                f"{expected.get(op.key)}"
            )
        return None

    return check


def cold_set_up(workload, scale, seed, workloads):
    """Construct the workload's system through ``repro.api`` and answer
    its first op.  Returns ``(system, ops in replay order, seconds)``."""
    start = time.perf_counter()
    system = workload.build(scale)
    ops = workloads.replay_order(workload.population(system, scale), seed)
    workload.run(system, ops[0])
    return system, ops, time.perf_counter() - start


def run_end_to_end(args, workloads, scale) -> dict:
    workload = workloads.WORKLOADS[args.workload]
    check = make_check(workload, load_expected(scale, workload.family))
    system, ops, first_setup_s = cold_set_up(
        workload, scale, args.seed, workloads
    )
    setup_times = [first_setup_s]

    def spare_set_ups(count) -> None:
        for _ in range(count):
            spare, _, seconds = cold_set_up(
                workload, scale, args.seed, workloads
            )
            workload.close(spare)
            setup_times.append(seconds)

    # The spare cold set-ups are split around the window (the single
    # spare of a native workload comes after it), so that one burst of
    # interference cannot slow every set-up of the run.  The quick
    # smoke makes do with the one set-up it needs.
    spares = 0 if args.quick else workload.setup_repeats - 1
    try:
        spare_set_ups(spares // 2)
        for op in ops[: max(1, int(len(ops) * workloads.WARMUP_SHARE))]:
            workload.run(system, op)
        measured = estimator.measure(
            ops,
            lambda op: workload.run(system, op),
            check,
            seconds=args.seconds,
            max_rounds=2 if args.quick else None,
        )
        rss = peak_rss_mb()
    finally:
        workload.close(system)
    spare_set_ups(spares - spares // 2)

    work = workload.work_per_op(scale)
    weights = [op.weight for op in ops]
    values = {}
    if measured.complete:
        values.update(
            estimator.latency_metrics(measured.floors_s, work, weights)
        )
    values["peak_rss_mb"] = rss
    values["setup_s"] = min(setup_times)
    noise = estimator.round_diagnostics(measured.round_times_s)
    return {
        "metrics": values,
        "units": catalogue.END_TO_END_UNITS,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "correct": measured.failed == 0 and measured.complete,
        "error_rate": measured.failed / measured.attempted,
        "failures": measured.failures,
        "ops": sum(weights),
        "distinct_ops": len(ops),
        "work_per_op": work,
        "window_s": measured.window_s,
        "window_requested_s": args.seconds,
        "setup_times_s": setup_times,
        # What a whole-round average would have reported: the floor qps
        # scaled by how much longer the median round took than the floors.
        "raw_qps_median_round": values.get("qps", 0.0)
        * sum(measured.floors_s) / noise["median_round_s"],
        **noise,
    }


def run_traced(args, workloads, scale) -> dict:
    import layers

    workload = workloads.WORKLOADS[args.workload]
    check = make_check(workload, load_expected(scale, workload.family))
    return layers.trace_run(
        workload,
        scale,
        args.seed,
        args.seconds,
        check,
        quick=args.quick,
        span_path=args.out_dir / f"trace_{workload.name}.jsonl",
    )


def record_expected(workloads) -> None:
    """Rewrite ``expected.json`` from the current program.

    The three native workloads must agree bit for bit before a digest is
    recorded, and no recorded op may shed or answer partially.
    """
    recorded = {}
    for scale in workloads.SCALES.values():
        by_family = {}
        for workload in workloads.WORKLOADS.values():
            system = workload.build(scale)
            try:
                digests = {}
                for op in workload.population(system, scale):
                    digest = workload.digest(workload.run(system, op))
                    if digest is None:
                        sys.exit(f"{workload.name}/{op.key}: failed op")
                    digests[op.key] = digest
            finally:
                workload.close(system)
            known = by_family.setdefault(workload.family, {})
            for key, digest in digests.items():
                if known.setdefault(key, digest) != digest:
                    sys.exit(f"{workload.name}/{key}: workloads disagree")
            print(f"recorded {scale.name}/{workload.name}: {len(digests)}")
        recorded[scale.name] = by_family
    with open(EXPECTED_PATH, "w") as handle:
        json.dump(recorded, handle, indent=0, sort_keys=True)
        handle.write("\n")


def report(args, scale, outcome: dict, wall_s: float) -> None:
    """Print the metrics, write the run record, end with the result line."""
    units = outcome.pop("units")
    metrics = outcome.pop("metrics")
    for name, unit in units.items():
        value = metrics.get(name)
        shown = "skipped" if value is None else f"{value:.6g}"
        print(f"{name:34s} {shown:>14s} {unit}")
    print(
        f"ops={outcome['ops']} rounds={outcome['rounds']} "
        f"attempted={outcome['attempted']} failed={outcome['failed']} "
        f"noisy={outcome['noisy']} wall_s={wall_s:.1f}"
    )
    for failure in outcome["failures"]:
        print(f"FAILED {failure}")
    for name, reason in outcome.get("probes_skipped", {}).items():
        print(f"SKIPPED {name}: {reason}")

    record = {
        **provenance(args, scale),
        "wall_s": wall_s,
        **outcome,
        "metrics": {
            name: {"value": metrics.get(name), "unit": unit}
            for name, unit in units.items()
        },
        "claim": None,
    }
    kind = "trace" if args.trace else "run"
    path = args.out_dir / f"{kind}_{args.workload}_seed{args.seed}.json"
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    print(f"[run record: {path}]")

    # The result line: a skipped probe reads 0 here (it is null, with
    # its reason, in the run record above).
    print(json.dumps({
        "correct": bool(outcome["correct"]),
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": {
            name: {"value": metrics.get(name) or 0.0, "unit": unit}
            for name, unit in units.items()
        },
    }))


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    workloads = import_program()
    try:
        if args.record:
            record_expected(workloads)
            return 0
        if args.workload not in workloads.WORKLOADS:
            sys.exit(
                "run.py: --workload must be one of "
                f"{sorted(workloads.WORKLOADS)}"
            )
        scale = workloads.QUICK if args.quick else workloads.FULL
        args.out_dir.mkdir(parents=True, exist_ok=True)
        run = run_traced if args.trace else run_end_to_end
        outcome = run(args, workloads, scale)
        # Before the result line, so that no process outlives it.
        stop_children()
        report(args, scale, outcome, time.perf_counter() - started)
        return 0
    finally:
        stop_children()


if __name__ == "__main__":
    sys.exit(main())
