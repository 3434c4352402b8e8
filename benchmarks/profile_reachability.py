"""Which ``src/`` functions does no user entry point reach?

Runs every entry point a user has, each in its own interpreter under a
``sys.settrace`` / ``threading.settrace`` call hook:

- the examples (``examples/*.py``);
- every CLI subcommand, through ``tests/test_cli.py``;
- the figure benches, ``pytest benchmarks/ --quick --benchmark-disable``;
- the four perf workloads, ``--quick`` with ``--trace 0`` and ``--trace 1``;
- the fault-space explorer, ``python -m repro.resilience.explore``
  with CI's arguments;

then tier-1 (``pytest tests/``) the same way, and prints, per ``src/``
file, each function that no entry point reaches, its line count, whether
tier-1 reaches it and whether a file under ``examples/`` or
``benchmarks/`` names it (``--quick`` sizes and xfail benches stop
early, so a named function may be one the trace misses; the match is
by word, so another class's attribute of the same name counts).  A nested
function is listed only when the function holding it is reached.

    PYTHONPATH=src python benchmarks/profile_reachability.py

takes ≈ 10 min on 2 vCPUs.  ``benchmarks/results/reachability.txt``
holds its output before and after each dead-code deletion pass.

The hook is a generated ``sitecustomize.py`` put first on the children's
``PYTHONPATH``, so subprocesses and spawned workers are traced too.  It
writes each newly reached function to a per-process file as it is first
called, so a forked child, which leaves through ``os._exit`` (no
``atexit``), or a worker killed by a fault test loses nothing.  It is a
*trace* hook, not a profile hook: the ``cProfile`` tests and
pytest-benchmark's timed runs replace the profile hook, which would
silently under-count.  The hook slows a run ≈ 3×, so wall-clock tests
may fail under it; pytest runs without ``-x`` so that a failure does not
end the coverage, and each run's exit status is printed.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PERF_WORKLOADS = ("daat_1p", "bmw_1p", "daat_2p_procs", "des_sweep")
#: Runs at once; each is one busy interpreter.
JOBS = 2

HOOK = '''\
import os, sys, threading
_OUT = {out!r}
_SRC = {src!r}
_seen = set()
_sink = [None, None]  # pid, fd


def _record(filename, line):
    pid = os.getpid()
    if _sink[0] != pid:  # first write, or a forked child
        _sink[0] = pid
        _sink[1] = os.open(
            os.path.join(_OUT, "%d.txt" % pid),
            os.O_WRONLY | os.O_CREAT | os.O_APPEND,
        )
    os.write(_sink[1], ("%s\\t%d\\n" % (filename, line)).encode())


def _hook(frame, event, arg):
    code = frame.f_code
    key = (code.co_filename, code.co_firstlineno)
    if key not in _seen:
        _seen.add(key)
        if key[0].startswith(_SRC):
            _record(*key)


sys.settrace(_hook)
threading.settrace(_hook)
'''


def entry_points(out_dir: Path):
    """(label, argv) of every user entry point."""
    py = sys.executable
    runs = [
        (f"example {path.name}", [py, str(path)])
        for path in sorted((ROOT / "examples").glob("*.py"))
    ]
    runs.append(("cli tests/test_cli.py",
                 [py, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                  "tests/test_cli.py"]))
    runs.append(("benches --quick",
                 [py, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                  "benchmarks/", "--quick", "--benchmark-disable"]))
    for workload in PERF_WORKLOADS:
        for trace in ("0", "1"):
            runs.append((
                f"perf {workload} --trace {trace}",
                [py, "benchmarks/perf/run.py", "--workload", workload,
                 "--quick", "--trace", trace,
                 "--out-dir", str(out_dir / "perf-out")],
            ))
    runs.append(("explore",
                 [py, "-m", "repro.resilience.explore",
                  "--schedules", "100", "--backend", "both"]))
    return runs


TIER1 = ("tier-1 pytest tests/",
         [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
          "tests/"])


def hook_env(work: Path, group: str):
    """Environment whose interpreters record reached functions under
    ``work/reached-<group>``; returns it and that directory."""
    hook_dir = work / f"hook-{group}"
    dump_dir = work / f"reached-{group}"
    hook_dir.mkdir()
    dump_dir.mkdir()
    (hook_dir / "sitecustomize.py").write_text(
        HOOK.format(out=str(dump_dir), src=str(SRC) + os.sep)
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(hook_dir), str(SRC), env.get("PYTHONPATH")) if p
    )
    return env, dump_dir


def run(label, argv, env):
    """Run one argv to completion; its status line, then one line per
    failed test."""
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    lines = proc.stdout.strip().splitlines() or [""]
    status = (f"  {label:<34} exit {proc.returncode:>3}  "
              f"{time.perf_counter() - start:6.0f} s  {lines[-1][:60]}")
    failed = [f"      {line}" for line in lines if line.startswith("FAILED ")]
    return "\n".join([status] + failed)


def reached(dump_dir: Path):
    """Every (file, first line) a traced interpreter recorded."""
    keys = set()
    for dump in dump_dir.iterdir():
        for line in dump.read_text().splitlines():
            filename, lineno = line.rsplit("\t", 1)
            keys.add((filename, int(lineno)))
    return keys


def functions(path: Path):
    """(qualname, first line incl. decorators, line count, [children])
    for every top-level function and method of a module, nested ones
    as children."""

    def visit(node, prefix):
        found = []
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                name = f"{prefix}{child.name}"
                found.append((name, first, child.end_lineno - first + 1,
                              visit(child, name + ".")))
            elif isinstance(child, ast.ClassDef):
                found.extend(visit(child, f"{prefix}{child.name}."))
            else:
                found.extend(visit(child, prefix))
        return found

    return visit(ast.parse(path.read_text()), "")


def named_outside_src():
    """Every identifier that appears in a file under examples/ or
    benchmarks/ (this script excluded)."""
    words = set()
    for path in list((ROOT / "examples").rglob("*.py")) + list(
        (ROOT / "benchmarks").rglob("*.py")
    ):
        if path.resolve() != Path(__file__).resolve():
            words.update(re.findall(r"\w+", path.read_text()))
    return words


def report(entry, tier1, named):
    """Per-file lines for the unreached functions and the totals."""
    lines = []
    totals = {"unreached": 0, "tier1": 0, "none": 0}

    def walk(path, funcs, out):
        for name, first, count, children in funcs:
            key = (str(path), first)
            if key in entry:
                walk(path, children, out)
                continue
            by_tier1 = key in tier1
            totals["unreached"] += count
            totals["tier1" if by_tier1 else "none"] += count
            leaf = name.rsplit(".", 1)[-1]
            out.append(
                f"  {name:<52} {count:>4} lines  "
                f"tier-1 {'yes' if by_tier1 else 'no ':<3}  "
                f"named {'yes' if leaf in named else 'no'}"
            )

    for path in sorted(SRC.rglob("*.py")):
        out = []
        walk(path, functions(path), out)
        if out:
            lines.append(str(path.relative_to(ROOT)))
            lines.extend(out)
    lines.append("")
    lines.append(
        f"unreached by any entry point: {totals['unreached']} lines; "
        f"reached by tier-1: {totals['tier1']}; "
        f"reached by nothing: {totals['none']}"
    )
    return lines


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="reachability-") as tmp:
        work = Path(tmp)
        entry_env, entry_dir = hook_env(work, "entry")
        tier1_env, tier1_dir = hook_env(work, "tier1")
        # The two pytest runs take longest: start them first.
        jobs = [TIER1 + (tier1_env,)] + sorted(
            ((label, argv, entry_env) for label, argv in entry_points(work)),
            key=lambda job: not job[0].startswith("benches"),
        )
        with ThreadPoolExecutor(max_workers=JOBS) as pool:
            statuses = list(pool.map(lambda job: run(*job), jobs))
        entry, tier1 = reached(entry_dir), reached(tier1_dir)
    print("runs (exit status, wall time, last output line):")
    print("\n".join(statuses))
    print()
    print("\n".join(report(entry, tier1, named_outside_src())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
