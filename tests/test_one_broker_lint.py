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

The share streams have one reader each.  The names of a server's
imbalance stream and of the broker's ``"server-imbalance"`` stream are
each handed straight to a ``_ShareStream`` (``cluster/server.py``),
which opens the stream only when it splits into more than one part and
draws it ahead in blocks.  That is bit-identical only while nothing
else reads the Generator, so :func:`test_share_streams_have_one_reader`
pins both hand-overs and every access to ``_ShareStream``'s Generator,
and :func:`test_one_part_share_stream_opens_no_generator` pins that a
one-part split opens nothing.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from repro.cluster.server import _ShareStream
from repro.sim.random import RandomStreams

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


#: (file, scope, access) that may touch ``_ShareStream``'s Generator.
SHARE_RNG_ACCESS = {
    ("cluster/server.py", "_ShareStream.__init__", ast.Store),
    ("cluster/server.py", "_ShareStream.next", ast.Load),
}


def _scope(node, parents) -> str:
    names = []
    while node in parents:
        node = parents[node]
        if isinstance(
            node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            names.append(node.name)
    return ".".join(reversed(names)) or "<module>"


def _hands_to_share_stream(node, parents) -> bool:
    """True if ``node`` is the stream-name argument of
    ``_ShareStream(streams, name, ...)``."""
    call = parents.get(node)
    return (
        isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id == "_ShareStream"
        and call.args[1:2] == [node]
    )


def _share_stream_access(relative: str, tree: ast.AST):
    parents = {
        child: parent
        for parent in ast.walk(tree)
        for child in ast.iter_child_nodes(parent)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "_share_rng":
            access = (relative, _scope(node, parents), type(node.ctx))
            if access not in SHARE_RNG_ACCESS:
                yield node, "touches _share_rng"
        elif isinstance(node, ast.Name) and node.id == "imbalance_stream":
            if isinstance(node.ctx, ast.Load) and not _hands_to_share_stream(
                node, parents
            ):
                yield node, "reads imbalance_stream"
        elif isinstance(node, ast.Constant) and node.value == (
            "server-imbalance"
        ):
            if not _hands_to_share_stream(node, parents):
                yield node, 'requests "server-imbalance"'


def _share_stream_violations(root: Path = SRC_ROOT):
    found = []
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        tree = ast.parse(path.read_text())
        found += [
            f"src/repro/{relative}:{node.lineno}: {what}"
            for node, what in _share_stream_access(relative, tree)
        ]
    return found


def test_share_streams_have_one_reader():
    violations = _share_stream_violations()
    assert not violations, (
        "a share stream is drawn ahead in blocks by its one reader; "
        "give any other consumer its own named stream instead:\n"
        + "\n".join(violations)
    )


def test_share_stream_lint_actually_detects(tmp_path):
    """Planted reads outside ``_ShareStream`` are caught; the hand-overs
    and ``_ShareStream``'s own accesses are not."""
    (tmp_path / "cluster").mkdir()
    (tmp_path / "cluster" / "server.py").write_text(
        "class _ShareStream:\n"
        "    def __init__(self, streams, name):\n"
        "        self._share_rng = streams.stream(name)\n"
        "    def next(self):\n"
        "        return self._share_rng.dirichlet(self._alpha)\n"
        "class SimulatedServer:\n"
        "    def __init__(self, streams, imbalance_stream):\n"
        "        self._shares = _ShareStream(streams, imbalance_stream)\n"
        "        self._noise = streams.stream(imbalance_stream)\n"
        "    def handle_arrival(self, record):\n"
        "        record.noise = self._shares._share_rng.random()\n"
    )
    (tmp_path / "cluster" / "broker.py").write_text(
        "def build(streams):\n"
        '    shares = _ShareStream(streams, "server-imbalance")\n'
        '    jitter = streams.stream("server-imbalance")\n'
        '    old = _ShareStream(streams.stream("server-imbalance"), 2)\n'
    )
    assert _share_stream_violations(tmp_path) == [
        'src/repro/cluster/broker.py:3: requests "server-imbalance"',
        'src/repro/cluster/broker.py:4: requests "server-imbalance"',
        "src/repro/cluster/server.py:9: reads imbalance_stream",
        "src/repro/cluster/server.py:11: touches _share_rng",
    ]


class _RecordingStreams(RandomStreams):
    def __init__(self, seed):
        super().__init__(seed)
        self.requested = []

    def stream(self, name):
        self.requested.append(name)
        return super().stream(name)


def test_one_part_share_stream_opens_no_generator():
    """A one-part split is the whole: the name it holds is never
    opened, so no Generator exists for another reader to share."""
    streams = _RecordingStreams(0)
    whole = _ShareStream(streams, "server-imbalance", 1, 60.0)
    assert whole.next() == (1.0,)
    assert whole._share_rng is None
    assert streams.requested == []
    _ShareStream(streams, "server-imbalance", 2, 60.0)
    assert streams.requested == ["server-imbalance"]
