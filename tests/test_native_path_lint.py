"""Repo lint: one way into the native engine.

A policy-free query once crossed three facades that added nothing
(``api.SearchEngine`` → ``SearchService`` → ``IndexServingNode.execute``
→ ``_execute_admitted`` → ``_serve``), two searchers per shard
(``ShardSearcher`` re-wrapping what the ``Searcher`` it owned had just
built) and two derivations of the same five timings from the same
timestamps.  Each collapsed onto the layer that does the work, and this
test pins the greppable part of that so the layers do not grow back:
the public names are *names*, not wrappers; the deleted spellings stay
deleted; a shard has one searcher; a response's timings and its span
tree are one measurement.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import repro.api
from repro.engine.instrumentation import ComponentTimings
from repro.engine.isn import IndexServingNode
from repro.engine.service import SearchService, SearchServiceConfig
from repro.index.partitioner import partition_index
from repro.obs.tracing import Tracer
from repro.search.executor import Searcher, ShardSearcher

SRC_ROOT = Path(__file__).resolve().parent.parent / "src"

#: Spellings of the deleted pass-through layers and backend choices.
DELETED = re.compile(
    r"from_span|to_service_config|SearchService\.build|_execute_admitted"
    r"|LocalBackend|ProcessBackend|use_processes"
)


def test_public_names_are_the_service_itself():
    assert repro.api.SearchEngine is SearchService
    assert repro.api.EngineConfig is SearchServiceConfig


def test_api_module_defines_no_engine_wrapper():
    tree = ast.parse((SRC_ROOT / "repro" / "api.py").read_text())
    defined = {
        node.name for node in tree.body if isinstance(node, ast.ClassDef)
    }
    assert defined == {"QueryOutcome", "ClusterConfig", "ClusterModel"}


def _deleted_spellings(root: Path = SRC_ROOT):
    return [
        f"{path.relative_to(root.parent).as_posix()}:{number}: {line.strip()}"
        for path in sorted(root.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if DELETED.search(line)
    ]


def test_deleted_layers_stay_deleted():
    found = _deleted_spellings()
    assert not found, (
        "a pass-through layer on the native path is back — call the "
        "layer that does the work instead:\n" + "\n".join(found)
    )


def test_lint_catches_a_planted_spelling(tmp_path):
    """Self-test: the scan does flag what it is meant to forbid."""
    planted = tmp_path / "src" / "repro"
    planted.mkdir(parents=True)
    (planted / "glue.py").write_text(
        "timings = ComponentTimings.from_span(trace)\n"
    )
    assert _deleted_spellings(tmp_path / "src") == [
        "src/repro/glue.py:1: timings = ComponentTimings.from_span(trace)"
    ]


def test_a_shard_has_one_searcher(small_collection):
    shard = partition_index(small_collection, 2)[1]
    searcher = ShardSearcher(shard)
    assert not any(
        isinstance(value, Searcher) for value in vars(searcher).values()
    )
    assert searcher.global_doc_ids is shard.global_doc_ids


class TestOneTimingDerivation:
    """What the deleted ``from_span`` tests checked, on the live path."""

    def _execute(self, small_collection, small_query_log, tracer):
        partitioned = partition_index(small_collection, 3)
        text = next(iter(small_query_log)).text
        with IndexServingNode(partitioned, tracer=tracer) as node:
            return node.execute(text)

    def test_traced_timings_equal_span_durations(
        self, small_collection, small_query_log
    ):
        response = self._execute(small_collection, small_query_log, Tracer())
        root, timings = response.trace, response.timings
        fanout = root.find("fanout")
        assert timings.parse_seconds == root.find("parse").duration
        assert timings.shard_seconds == [
            span.duration for span in fanout.children
        ]
        assert len(timings.shard_seconds) == 3
        assert timings.fanout_seconds == fanout.duration
        assert timings.merge_seconds == root.find("merge").duration
        assert timings.total_seconds == root.duration

    def test_untraced_execute_fills_the_same_fields(
        self, small_collection, small_query_log
    ):
        response = self._execute(small_collection, small_query_log, None)
        timings = response.timings
        assert response.trace is None
        assert isinstance(timings, ComponentTimings)
        assert len(timings.shard_seconds) == 3
        assert min(timings.shard_seconds) > 0.0
        assert timings.parse_seconds > 0.0
        assert timings.merge_seconds > 0.0
        assert timings.fanout_seconds >= timings.slowest_shard_seconds
        assert timings.total_seconds >= (
            timings.parse_seconds
            + timings.fanout_seconds
            + timings.merge_seconds
        )


class TestPoolOnlyUnderHedging:
    """The thread pool is hedging's: one construction site, guarded by
    the hedging check, and the merge no longer goes through a heap."""

    ISN = SRC_ROOT / "repro" / "engine" / "isn.py"
    #: ``isn.py`` at the commit that merged the shard backends into
    #: one class; ROADMAP wants it smaller, not larger.
    ISN_LINES = 1019

    def _pool_sites(self, source: str):
        """(line, guarding ``if`` tests) of each ThreadPoolExecutor(...)."""
        sites = []

        def visit(node, guards):
            if isinstance(node, ast.Call) and (
                getattr(node.func, "id", None) == "ThreadPoolExecutor"
            ):
                sites.append((node.lineno, guards))
            for name, value in ast.iter_fields(node):
                children = value if isinstance(value, list) else [value]
                inner = guards
                if isinstance(node, ast.If) and name == "body":
                    inner = guards + [ast.unparse(node.test)]
                for child in children:
                    if isinstance(child, ast.AST):
                        visit(child, inner)

        visit(ast.parse(source), [])
        return sites

    def test_one_pool_site_guarded_by_the_hedging_check(self):
        sites = self._pool_sites(self.ISN.read_text())
        assert len(sites) == 1, sites
        _, guards = sites[0]
        assert "self.hedging is not None" in guards, guards

    def test_lint_sees_an_unguarded_pool(self):
        """Self-test: a pool built outside the check is reported as such."""
        planted = (
            "if self.hedging is not None:\n"
            "    pass\n"
            "else:\n"
            "    pool = ThreadPoolExecutor(max_workers=2)\n"
        )
        assert self._pool_sites(planted) == [(4, [])]

    def test_merger_does_not_import_the_heap(self):
        merger = SRC_ROOT / "repro" / "search" / "merger.py"
        assert "TopKHeap" not in merger.read_text()

    def test_isn_module_does_not_grow(self):
        lines = len(self.ISN.read_text().splitlines())
        assert lines <= self.ISN_LINES, lines


def _function_calls(tree: ast.AST):
    """``{function name: names it calls}`` for every def in ``tree``."""
    calls = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            calls[node.name] = {
                getattr(call.func, "id", getattr(call.func, "attr", None))
                for call in ast.walk(node)
                if isinstance(call, ast.Call)
            }
    return calls


def _merge_sites(root: Path):
    """``(module, function)`` of each stable argsort — the merge's sort."""
    sites = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            for call in ast.walk(node):
                if (
                    isinstance(call, ast.Call)
                    and getattr(call.func, "attr", None) == "argsort"
                    and any(
                        keyword.arg == "kind"
                        and getattr(keyword.value, "value", None) == "stable"
                        for keyword in call.keywords
                    )
                ):
                    sites.append((path.stem, node.name))
    return sites


class TestOneScoringKernel:
    """One array merge, two candidate generators.

    Exhaustive DAAT feeds the merge every posting; Block-Max WAND, on a
    resident and a tiered index alike, feeds it the postings of the
    documents its block bounds let through.  The merge (concatenate →
    stable argsort → term-order segment sums) is written once, and both
    callers use that one.
    """

    SEARCH = SRC_ROOT / "repro" / "search"

    def test_the_merge_is_defined_once(self):
        assert _merge_sites(self.SEARCH) == [("daat", "_merge_postings")]

    def test_daat_and_resident_bmw_call_it(self):
        daat = _function_calls(ast.parse((self.SEARCH / "daat.py").read_text()))
        bmw = _function_calls(
            ast.parse((self.SEARCH / "block_max_wand.py").read_text())
        )
        assert "_merge_postings" in daat["score_daat"]
        assert "_merge_postings" in bmw["_generate"]
        assert "_generate" in bmw["_score_block_max_wand"]
        assert "_score_block_max_wand" in bmw["score_block_max_wand"]

    def test_lint_sees_a_second_merge(self, tmp_path):
        """Self-test: a copied merge elsewhere is reported."""
        (tmp_path / "daat.py").write_text(
            "def _merge_postings(ids):\n"
            "    return ids.argsort(kind='stable')\n"
        )
        (tmp_path / "block_max_wand.py").write_text(
            "import numpy as np\n"
            "def _generate(ids):\n"
            "    return np.argsort(ids, kind='stable')\n"
        )
        assert _merge_sites(tmp_path) == [
            ("block_max_wand", "_generate"),
            ("daat", "_merge_postings"),
        ]


def _thread_sites(sources):
    """``(module, target)`` of each ``Thread(...)`` construction."""
    sites = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call) and "Thread" in (
                getattr(node.func, "attr", None),
                getattr(node.func, "id", None),
            ):
                targets = [
                    ast.unparse(keyword.value)
                    for keyword in node.keywords
                    if keyword.arg == "target"
                ]
                sites.append((module, *targets))
    return sites


def _imported_modules(source: str):
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module)
    return modules


def _submit_classes(source: str):
    """Names of the classes in ``source`` that define ``submit``."""
    return [
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
        and any(
            isinstance(item, ast.FunctionDef) and item.name == "submit"
            for item in node.body
        )
    ]


class TestOneShardBackend:
    """One backend class serves every configuration: the thread backend
    is the process backend with no worker pool."""

    def test_one_class_defines_submit(self):
        backends = SRC_ROOT / "repro" / "engine" / "backends.py"
        assert _submit_classes(backends.read_text()) == ["ShardBackend"]

    def test_lint_sees_a_second_backend(self):
        """Self-test: a subclass that re-dispatches is reported."""
        planted = (
            "class ShardBackend:\n"
            "    def submit(self, items, cancel):\n"
            "        return []\n"
            "class InlineBackend(ShardBackend):\n"
            "    def submit(self, items, cancel):\n"
            "        return []\n"
        )
        assert _submit_classes(planted) == ["ShardBackend", "InlineBackend"]


class TestNoDispatcherThreads:
    """The process backend's caller drives the worker pipes itself.

    A query once travelled caller → per-worker dispatcher thread (fed
    from a shared queue) → pipe → worker and back.  The dispatcher
    threads and their queue are gone; the only thread the process
    backend starts is the pool's health monitor.
    """

    ENGINE = SRC_ROOT / "repro" / "engine"

    def _sources(self):
        return {
            module: (self.ENGINE / f"{module}.py").read_text()
            for module in ("mp", "backends")
        }

    def test_the_health_monitor_is_the_only_thread(self):
        assert _thread_sites(self._sources()) == [
            ("mp", "self._health_loop")
        ]

    def test_mp_does_not_import_queue(self):
        assert "queue" not in _imported_modules(self._sources()["mp"])

    def test_lint_sees_a_dispatcher_thread(self):
        """Self-test: a relay thread and its queue are reported."""
        planted = (
            "import queue\n"
            "import threading\n"
            "threading.Thread(target=self._dispatch_loop, daemon=True)\n"
            "Thread(target=self._health_loop)\n"
        )
        assert _thread_sites({"mp": planted}) == [
            ("mp", "self._dispatch_loop"),
            ("mp", "self._health_loop"),
        ]
        assert "queue" in _imported_modules(planted)


def _scorer_builds_in_search(source: str):
    """What ``search`` calls that would build a scorer per query."""
    calls = _function_calls(ast.parse(source))["search"]
    return calls & {"_make_scorer", "scorer_factory"}


def _term_array_callers(source: str):
    """``{builder: functions calling it}`` for a term's score arrays."""
    calls = _function_calls(ast.parse(source))
    return {
        builder: {name for name, called in calls.items() if builder in called}
        for builder in ("_vector_scores", "max_scores")
    }


class TestNothingPerTermIsRebuiltPerQuery:
    """What depends only on (searcher, term) stays off the query path.

    A ``Searcher`` builds its scorer once, when it is constructed, and
    resident Block-Max WAND reads each term's contributions and block
    bounds from the record ``_term_impacts`` builds and the searcher
    keeps.  Tiered Block-Max WAND derives its bounds per query in
    ``_paged_impacts`` and scores a block as ``_PagedImpacts._read``
    pages it in.
    """

    SEARCH = SRC_ROOT / "repro" / "search"

    def test_search_builds_no_scorer(self):
        source = (self.SEARCH / "executor.py").read_text()
        assert _scorer_builds_in_search(source) == set()

    def test_term_arrays_come_from_the_record_builder(self):
        source = (self.SEARCH / "block_max_wand.py").read_text()
        assert _term_array_callers(source) == {
            "_vector_scores": {"_term_impacts", "_read"},
            "max_scores": {"_term_impacts", "_paged_impacts"},
        }
        assert {"_term_impacts", "_paged_impacts"} <= _names_read(
            source, "_generate"
        )

    def test_lint_sees_per_query_rebuilds(self):
        """Self-test: a scorer per search and bounds per query are reported."""
        executor = (
            "class Searcher:\n"
            "    def search(self, query):\n"
            "        scorer = self.scorer_factory(self.index)\n"
        )
        assert _scorer_builds_in_search(executor) == {"scorer_factory"}
        bmw = (
            "def _term_impacts(index, scorer, term):\n"
            "    return _vector_scores(scorer, tf, lengths, idf)\n"
            "def _generate(index, query, scorer):\n"
            "    return blocks.max_scores(scorer, idf)\n"
        )
        assert _term_array_callers(bmw) == {
            "_vector_scores": {"_term_impacts"},
            "max_scores": {"_generate"},
        }


class TestTermsLookedUpOnce:
    """A query's terms are looked up once, by the traversal.

    ``SearchResult.matched_volume`` is summed by each traversal from
    the term lookups it makes to find the postings; ``Searcher.search``
    once recounted it with ``matched_postings_volume``, a second
    dictionary pass over the same terms for every query.
    """

    def test_search_does_not_recount_the_volume(self):
        source = (SRC_ROOT / "repro" / "search" / "executor.py").read_text()
        calls = _function_calls(ast.parse(source))["search"]
        assert "matched_postings_volume" not in calls

    def test_lint_sees_a_recount(self):
        """Self-test: a second lookup pass in ``search`` is reported."""
        planted = (
            "class Searcher:\n"
            "    def search(self, query):\n"
            "        terms = list(query.terms)\n"
            "        return self.index.matched_postings_volume(terms)\n"
        )
        calls = _function_calls(ast.parse(planted))["search"]
        assert "matched_postings_volume" in calls


def _names_read(source: str, function: str):
    """Every plain name ``function`` in ``source`` reads."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name == function:
            return {
                name.id for name in ast.walk(node) if isinstance(name, ast.Name)
            }
    return set()


def _pivot_kernel_users(sources):
    """``{module: names it imports from repro.search.wand}`` and the
    cursor classes ``wand`` defines."""
    imports = {}
    cursors = []
    for module, source in sources.items():
        tree = ast.parse(source)
        imports[module] = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and node.module == "repro.search.wand"
            for alias in node.names
        }
        if module == "wand":
            cursors = [
                node.name
                for node in tree.body
                if isinstance(node, ast.ClassDef) and "Cursor" in node.name
            ]
    return imports, cursors


def _residency_branches(source: str):
    """Functions that ask whether an index is tiered."""
    return [
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef)
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
        and getattr(call.func, "id", None) == "hasattr"
        and any(
            getattr(argument, "value", None) == "tiered_postings_for_id"
            for argument in call.args
        )
    ]


class TestOneBlockMaxWand:
    """Block-Max WAND is one candidate generator on either residency.

    A tiered index once ran Block-Max WAND through the pivot kernel over
    a paged cursor, a second algorithm with its own pruning and I/O
    schedule.  Now ``_generate`` serves both residencies — only the
    per-term record differs — and the pivot kernel in ``wand.py``
    serves plain WAND alone, with one cursor class: no other search
    module imports anything from ``wand`` but ``score_wand``.
    """

    SEARCH = SRC_ROOT / "repro" / "search"

    def _sources(self):
        return {
            path.stem: path.read_text()
            for path in sorted(self.SEARCH.glob("*.py"))
        }

    def test_nothing_but_wand_runs_the_pivot_kernel(self):
        imports, cursors = _pivot_kernel_users(self._sources())
        users = {module: names for module, names in imports.items() if names}
        assert users == {"__init__": {"score_wand"}, "executor": {"score_wand"}}
        assert cursors == ["_Cursor"]

    def test_one_residency_branch(self):
        source = (self.SEARCH / "block_max_wand.py").read_text()
        assert _residency_branches(source) == ["_generate"]

    def test_lint_sees_a_second_traversal(self):
        """Self-test: a paged cursor on the pivot kernel is reported."""
        planted = {
            "wand": (
                "class _Cursor:\n    pass\n"
                "class _PagedCursor(_Cursor):\n    pass\n"
            ),
            "block_max_wand": (
                "from repro.search.wand import _Cursor, _traverse\n"
            ),
        }
        imports, cursors = _pivot_kernel_users(planted)
        assert imports["block_max_wand"] == {"_Cursor", "_traverse"}
        assert cursors == ["_Cursor", "_PagedCursor"]
        forked = (
            "def _generate(index):\n"
            "    return hasattr(index, 'tiered_postings_for_id')\n"
            "def _score_block_max_wand(index):\n"
            "    if hasattr(index, 'tiered_postings_for_id'):\n"
            "        return _traverse(index)\n"
        )
        assert _residency_branches(forked) == [
            "_generate",
            "_score_block_max_wand",
        ]


#: Where a worker round trip starts and ends in ``engine/mp.py``.
WIRE_ROOTS = ("send", "_post", "receive", "_worker_main")


def _wire_functions(tree: ast.AST):
    """``(name, def)`` for every function the wire roots reach by name,
    transitively.  ``_picklable`` is not entered: it pickles an
    exception only to test that it survives."""
    defs: dict = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            defs.setdefault(node.name, []).append(node)
    reached, todo = set(), list(WIRE_ROOTS)
    while todo:
        name = todo.pop()
        if name in reached or name not in defs or name == "_picklable":
            continue
        reached.add(name)
        for call in ast.walk(ast.Module(body=defs[name], type_ignores=[])):
            if isinstance(call, ast.Call):
                func = call.func
                todo.append(getattr(func, "attr", getattr(func, "id", "")))
    return [(name, node) for name in sorted(reached) for node in defs[name]]


def _wire_violations(source: str):
    """Calls on the wire path that pickle something other than an
    exception or the counter deltas, or that send or receive a pickled
    message."""
    found = []
    for name, function in _wire_functions(ast.parse(source)):
        parents = {
            child: node
            for node in ast.walk(function)
            for child in ast.iter_child_nodes(node)
        }
        for call in ast.walk(function):
            if not (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
            ):
                continue
            owner, method = call.func.value, call.func.attr
            if isinstance(owner, ast.Name) and owner.id == "pickle":
                if method == "dumps":
                    arg = call.args[0]
                    ok = getattr(arg, "id", None) == "deltas" or (
                        isinstance(arg, ast.Call)
                        and getattr(arg.func, "id", None) == "_picklable"
                    )
                else:  # loads: raised, or merged as counter deltas
                    parent = parents.get(call)
                    ok = isinstance(parent, ast.Raise) or (
                        isinstance(parent, ast.Call)
                        and getattr(parent.func, "attr", None)
                        == "merge_counter_deltas"
                    )
            elif method in ("send", "recv"):
                ok = False  # ``Connection`` pickles what these carry
            else:
                continue
            if not ok:
                found.append(f"{name}: {ast.unparse(call)}")
    return found


class TestNoPickledPayloads:
    """A worker round trip is two binary frames.

    Queries and top-k replies once crossed the pipe as pickles (a frozen
    dataclass with an enum field one way, a tuple of lists back).  Now
    only the rare paths pickle: an item's exception and the counter
    deltas.  This pins that, so pickled payloads do not creep back onto
    the request or reply path.
    """

    SOURCE = (SRC_ROOT / "repro" / "engine" / "mp.py").read_text()

    def test_the_wire_path_pickles_only_errors_and_deltas(self):
        reached = {name for name, _ in _wire_functions(ast.parse(self.SOURCE))}
        assert set(WIRE_ROOTS) <= reached
        assert _wire_violations(self.SOURCE) == []

    def test_lint_sees_pickled_payloads(self):
        """Self-test: the old pickled protocol is reported."""
        planted = (
            "def _post(flight, handle):\n"
            "    handle.conn.send((flight.items, flight.depth))\n"
            "def receive(handle):\n"
            "    return pickle.loads(handle.pipe.read())\n"
            "def _worker_main(conn):\n"
            "    conn.send_bytes(pickle.dumps(payloads))\n"
            "    raise pickle.loads(conn.recv())\n"
        )
        assert _wire_violations(planted) == [
            "_post: handle.conn.send((flight.items, flight.depth))",
            "_worker_main: pickle.dumps(payloads)",
            "_worker_main: conn.recv()",
            "receive: pickle.loads(handle.pipe.read())",
        ]


#: Modules whose import starts ``multiprocessing``'s resource tracker,
#: a helper process that outlives ``close()``.
TRACKER_MODULES = {"shared_memory", "resource_tracker"}


def _tracker_imports(root: Path = SRC_ROOT):
    """``file:line: import`` for each import of a tracker module."""
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [
                    f"{node.module}.{alias.name}" for alias in node.names
                ]
            else:
                continue
            if any(TRACKER_MODULES & set(name.split(".")) for name in names):
                where = path.relative_to(root.parent).as_posix()
                found.append(f"{where}:{node.lineno}: {ast.unparse(node)}")
    return found


class TestOneIndexImage:
    """Workers map one index image file.

    The image once lived in a ``multiprocessing.shared_memory`` segment,
    which started the resource tracker (a child that outlived
    ``SearchEngine.close()``) and needed a second, non-Linux attach path
    that unregistered itself from that tracker.  This pins the file.
    """

    def test_src_imports_no_tracker_module(self):
        assert _tracker_imports() == []

    def test_lint_sees_a_tracker_import(self, tmp_path):
        """Self-test: each spelling of the import is reported."""
        planted = tmp_path / "src" / "repro"
        planted.mkdir(parents=True)
        (planted / "arena.py").write_text(
            "from multiprocessing import shared_memory\n"
            "import multiprocessing.resource_tracker\n"
            "from multiprocessing.shared_memory import SharedMemory\n"
            "from multiprocessing import Pipe\n"
        )
        assert _tracker_imports(tmp_path / "src") == [
            "src/repro/arena.py:1: from multiprocessing import shared_memory",
            "src/repro/arena.py:2: import multiprocessing.resource_tracker",
            "src/repro/arena.py:3: "
            "from multiprocessing.shared_memory import SharedMemory",
        ]


#: What ``index/shared.py`` must not import: the image is an index's
#: arrays as they are, and only ``InvertedIndex`` cuts them into terms.
PER_TERM_TYPES = {"PostingsList", "BlockMetadata", "TermDictionary"}


def _scoped(node, function=None):
    """Every node under ``node``, with the name of its enclosing def."""
    for child in ast.iter_child_nodes(node):
        yield function, child
        inner = function
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = child.name
        yield from _scoped(child, inner)


def _callee(node) -> str:
    """The called name of a ``Call`` (``a.b(...)`` -> ``b``), or ""."""
    if not isinstance(node, ast.Call):
        return ""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else ""


def _per_term_builds(path: Path, where: str):
    """The nodes of one module that name or build a per-term object."""
    tree = ast.parse(path.read_text())
    # Names bound to a TermDictionary built empty, to be filled by add().
    dictionaries = {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and _callee(node.value) == "TermDictionary"
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    for function, node in _scoped(tree):
        imported = set()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported = {alias.name.rpartition(".")[2] for alias in node.names}
        if (
            (isinstance(node, ast.Name) and node.id == "PostingsList")
            or (isinstance(node, ast.ClassDef) and node.name == "PostingsList")
            or "PostingsList" in imported
        ):
            yield node
        elif isinstance(node, ast.ClassDef) and node.name == "TermDictionary":
            yield from (
                item
                for item in node.body
                if isinstance(item, ast.FunctionDef) and item.name == "add"
            )
        elif (
            _callee(node) == "add"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in dictionaries
        ):
            yield node
        elif (
            _callee(node) == "BlockMetadata"
            and function != "block_metadata_for_id"
        ):
            yield node
        elif where == "src/repro/index/shared.py" and PER_TERM_TYPES & imported:
            yield node


def _layout_violations(root: Path = SRC_ROOT):
    """``file:line: code`` for each per-term object a module names or
    builds: any ``PostingsList``, a ``TermDictionary.add`` (defined, or
    called on a dictionary built empty), a ``BlockMetadata`` built
    outside ``block_metadata_for_id``, and each per-term type
    ``index/shared.py`` imports."""
    found = []
    for path in sorted(root.rglob("*.py")):
        where = path.relative_to(root.parent).as_posix()
        for node in _per_term_builds(path, where):
            code = ast.unparse(node).splitlines()[0]
            found.append(f"{where}:{node.lineno}: {code}")
    return sorted(found)


class TestOnePostingsLayout:
    """An index comes in one shape: the builder's back-to-back arrays.

    The index image once glued an index's per-term postings and block
    objects back into arrays on export, and cut them into per-term
    objects again on attach with a copy of the builder's loop; then the
    ``InvertedIndex`` constructor cut every open into a dictionary
    entry, a ``PostingsList`` and a ``BlockMetadata`` per term.  Now an
    index keeps its :class:`~repro.index.inverted.PostingsLayout` and a
    term → id map, and cuts one term's views when a caller asks.
    """

    def test_only_the_index_wraps_trusted_arrays(self):
        assert _layout_violations() == []

    def test_lint_sees_a_second_cut(self, tmp_path):
        """Self-test: the old constructor loop and the old image
        module's per-term imports are reported; the one on-demand
        ``BlockMetadata`` is not."""
        planted = tmp_path / "src" / "repro" / "index"
        planted.mkdir(parents=True)
        (planted / "inverted.py").write_text(
            "from repro.index.blockmax import BlockMetadata\n"
            "from repro.index.dictionary import TermDictionary\n"
            "from repro.index.postings import PostingsList\n"
            "class InvertedIndex:\n"
            "    def __init__(self, terms, layout, block_size):\n"
            "        dictionary = TermDictionary()\n"
            "        for term, cf, start, end, first, last in bounds:\n"
            "            dictionary.add(term, end - start, cf)\n"
            "            postings.append(\n"
            "                PostingsList.from_trusted_arrays(ids, freqs)\n"
            "            )\n"
            "            block_metadata.append(\n"
            "                BlockMetadata(block_size, ends, tfs, lengths)\n"
            "            )\n"
            "    def block_metadata_for_id(self, term_id):\n"
            "        return BlockMetadata(self.block_size, ends, tfs, lengths)\n"
        )
        (planted / "dictionary.py").write_text(
            "class TermDictionary:\n"
            "    def add(self, term, document_frequency, cf):\n"
            "        pass\n"
        )
        (planted / "shared.py").write_text(
            "from repro.index.blockmax import BlockMetadata\n"
            "from repro.index.inverted import InvertedIndex\n"
        )
        assert _layout_violations(tmp_path / "src") == [
            "src/repro/index/dictionary.py:2: "
            "def add(self, term, document_frequency, cf):",
            "src/repro/index/inverted.py:10: PostingsList",
            "src/repro/index/inverted.py:13: "
            "BlockMetadata(block_size, ends, tfs, lengths)",
            "src/repro/index/inverted.py:3: "
            "from repro.index.postings import PostingsList",
            "src/repro/index/inverted.py:8: "
            "dictionary.add(term, end - start, cf)",
            "src/repro/index/shared.py:1: "
            "from repro.index.blockmax import BlockMetadata",
        ]
