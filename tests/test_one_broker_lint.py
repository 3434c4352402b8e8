"""Repo lint: no fifth simulated broker.

The DES once implemented "admit → split the query over shards → pick a
replica → fork → gather → finish a record" four times (plain fan-out,
tail-tolerant fan-out, ``cluster/replication.py``, the autoscaler's
dispatch loop).  They are one :class:`repro.cluster.broker.Broker` now,
and this test pins the greppable part of that: the building blocks a
broker is made of each appear in one place under ``src/repro/``.

A new serving scenario is a routing rule, a driver that edits the
broker's replica table, or a policy field — not another loop that
admits, splits and gathers on its own.  The mixed big/little fleet
(``cluster/hetero.py``) is such a driver: its routers are callable
routing rules.  Only ``cluster/simulation.py`` (one server, no broker;
the independent reference of
``test_single_server_matches_single_node_sim``) talks to servers
directly, and is listed as such.
"""

from __future__ import annotations

import re
from pathlib import Path

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"

#: pattern -> the only files (relative to ``src/repro``) it may occur in.
RULES = {
    r"\bAdmissionController\(": {
        "cluster/broker.py",
        "resilience/admission.py",
    },
    r"""["']server-imbalance["']""": {"cluster/broker.py"},
    r"\.handle_arrival\b": {"cluster/broker.py", "cluster/simulation.py"},
    r"\bcluster\.replication\b|\bcluster\s+import\s+replication\b": set(),
}


def _violations(root: Path = SRC_ROOT, rules=RULES):
    found = []
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        for number, line in enumerate(path.read_text().splitlines(), start=1):
            code = line.split("#", 1)[0]
            for pattern, allowed in rules.items():
                if relative not in allowed and re.search(pattern, code):
                    found.append(
                        f"src/repro/{relative}:{number}: {line.strip()}"
                    )
    return found


def test_one_broker():
    violations = _violations()
    assert not violations, (
        "broker building blocks outside repro.cluster.broker — route the "
        "new scenario through the Broker (a ReplicaSelection rule, a "
        "driver editing Broker.replicas, a policy field) instead:\n"
        + "\n".join(violations)
    )
    assert not (SRC_ROOT / "cluster" / "replication.py").exists()


def test_lint_actually_detects(tmp_path):
    """The lint is live: planted violations are caught, the allowed
    file and a comment are not."""
    (tmp_path / "cluster").mkdir()
    (tmp_path / "cluster" / "broker.py").write_text(
        'rng = streams.stream("server-imbalance")\n'
        "controller = AdmissionController(policy)\n"
    )
    (tmp_path / "cluster" / "fifth.py").write_text(
        "from repro.cluster.replication import HedgeConfig\n"
        "controller = AdmissionController(policy)\n"
        "rng = streams.stream('server-imbalance')\n"
        "sim.schedule(t, server.handle_arrival, record)\n"
        "# AdmissionController( in a comment is fine\n"
    )
    (tmp_path / "cluster" / "hetero.py").write_text(
        "server.handle_arrival(record)\n"
    )
    violations = _violations(tmp_path)
    assert [v.split(":")[0] for v in violations] == (
        ["src/repro/cluster/fifth.py"] * 4 + ["src/repro/cluster/hetero.py"]
    )
    assert [v.split(":")[1] for v in violations] == ["1", "2", "3", "4", "1"]
