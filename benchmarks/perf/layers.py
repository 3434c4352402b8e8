"""Per-layer numbers for ``run.py --trace 1``.

A traced run does three things, all from this file (nothing under
``src/`` is instrumented):

1. an *untraced* window of the workload, for the run's own noise
   diagnostics and as the base of the tracing overhead;
2. a *traced* window: the workload's pipeline re-executed step by step
   through each layer's public functions, with a span (name, start, end,
   parent, op) around every call.  Spans stay in memory and are written
   to ``out/trace_<workload>.jsonl`` when the window is over.  A span's
   self time is its duration minus the part its children cover;
3. the *layer probes*: each times one layer's public functions on the
   reference instance, the same way whatever the workload.

Every probe imports its layer lazily.  When a later change renames an
internal, the probe's metrics are reported as ``null`` with the error in
``probes_skipped`` and the run goes on.
"""

from __future__ import annotations

import importlib
import json
import math
import statistics
import time
import traceback
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

import catalogue
import estimator
import workloads
from workloads import api

# ----------------------------------------------------------------------
# spans


class _Span:
    __slots__ = ("_recorder", "_index")

    def __init__(self, recorder: "SpanRecorder", index: int):
        self._recorder = recorder
        self._index = index

    def __enter__(self) -> None:
        recorder = self._recorder
        recorder.records[self._index][1] = recorder.clock()
        recorder.stack.append(self._index)

    def __exit__(self, *exc_info) -> None:
        recorder = self._recorder
        recorder.records[self._index][2] = recorder.clock()
        recorder.stack.pop()


class SpanRecorder:
    """In-memory span log: ``[name, start, end, parent, op]`` records,
    ``parent`` being the index of the enclosing span (-1 for a root) and
    ``op`` the position of the operation in the replay order."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.records: List[list] = []
        self.stack: List[int] = []

    def span(self, name: str, op: Optional[int] = None) -> _Span:
        parent = self.stack[-1] if self.stack else -1
        self.records.append([name, 0.0, 0.0, parent, op])
        return _Span(self, len(self.records) - 1)

    def self_times(self) -> List[float]:
        """Self time of every span: duration minus its children's."""
        selfs = [end - start for _, start, end, _, _ in self.records]
        for _, start, end, parent, _ in self.records:
            if parent >= 0:
                selfs[parent] -= end - start
        return selfs

    def per_op_floors(self) -> Dict[str, Dict[int, float]]:
        """``{span name: {op: floor}}``: per op and span name, the
        minimum over rounds of the summed self time; plus ``"total"``,
        the floor of the root span's duration."""
        selfs = self.self_times()
        floors: Dict[str, Dict[int, float]] = {}
        current: Dict[str, float] = {}

        def flush(op, total) -> None:
            current["total"] = total
            for name, value in current.items():
                by_op = floors.setdefault(name, {})
                if value < by_op.get(op, math.inf):
                    by_op[op] = value

        root = None
        for index, (name, start, end, parent, op) in enumerate(self.records):
            if parent < 0:
                if root is not None:
                    flush(root[0], root[1])
                root, current = (op, end - start), {}
                name = "glue"
            current[name] = current.get(name, 0.0) + selfs[index]
        if root is not None:
            flush(root[0], root[1])
        return floors

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for index, (name, start, end, parent, op) in enumerate(
                self.records
            ):
                handle.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op,
                }) + "\n")


# ----------------------------------------------------------------------
# timing helpers


def floor_time(fn: Callable[[], object], repeats: int) -> float:
    """Minimum wall time of ``fn()`` over ``repeats`` calls."""
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def item_floors(fn: Callable, items: Sequence, rounds: int) -> List[float]:
    """Per item, the minimum wall time of ``fn(item)`` over ``rounds``."""
    floors = [math.inf] * len(items)
    for _ in range(rounds):
        for position, item in enumerate(items):
            start = time.perf_counter()
            fn(item)
            elapsed = time.perf_counter() - start
            if elapsed < floors[position]:
                floors[position] = elapsed
    return floors


def median_us(seconds: Sequence[float]) -> float:
    return statistics.median(seconds) * 1e6


# ----------------------------------------------------------------------
# the reference instance, built layer by layer


#: Traversal strategy -> (module, function), imported on first use.
TRAVERSALS = {
    "daat": ("repro.search.daat", "score_daat"),
    "taat": ("repro.search.taat", "score_taat"),
    "wand": ("repro.search.wand", "score_wand"),
    "bmw": ("repro.search.block_max_wand", "score_block_max_wand"),
}


class Rig:
    """The native reference instance, constructed step by step through
    the layers ``SearchService`` itself calls, each step timed once."""

    #: Few probe queries, many rounds: floors need the rounds.
    PROBE_QUERIES = 30
    PROBE_ROUNDS = 8

    def __init__(self, scale: workloads.Scale):
        self.scale = scale
        self.timings: Dict[str, float] = {}
        self._cache: Dict[object, object] = {}

    def cached(self, key, build: Callable[[], object]):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def _timed(self, key, build: Callable[[], object]):
        def run():
            start = time.perf_counter()
            built = build()
            self.timings[key] = time.perf_counter() - start
            return built

        return self.cached(key, run)

    @property
    def generator(self):
        from repro.corpus.generator import CorpusGenerator

        return self.cached(
            "generator",
            lambda: CorpusGenerator(workloads.reference_corpus(self.scale)),
        )

    @property
    def collection(self):
        return self._timed("corpus.generate", self.generator.generate)

    @property
    def analyzer(self):
        from repro.text.analyzer import default_analyzer

        return self.cached("analyzer", default_analyzer)

    @property
    def query_log(self):
        from repro.corpus.querylog import QueryLogGenerator

        return self.cached(
            "query_log",
            lambda: QueryLogGenerator(
                self.generator.vocabulary, workloads.QUERY_LOG
            ).generate(),
        )

    def partitioned(self, partitions: int):
        from repro.index.partitioner import partition_index

        return self._timed(
            ("index.build", partitions),
            lambda: partition_index(
                self.collection, partitions, analyzer=self.analyzer
            ),
        )

    @property
    def index(self):
        """The 1-partition inverted index the traversal probes read."""
        return self.partitioned(1)[0].index

    def isn(self, partitions: int, algorithm: str, processes: bool = False):
        """A serving node over the index; the process backend gets one
        worker, as in the ``daat_2p_procs`` workload."""
        from repro.engine.isn import IndexServingNode

        execution = (
            api.ExecutionConfig(backend="processes", workers=1)
            if processes
            else None
        )
        partitioned = self.partitioned(partitions)
        return self._timed(
            ("isn", partitions, algorithm, processes),
            lambda: IndexServingNode(
                partitioned, algorithm=algorithm, execution=execution
            ),
        )

    @property
    def probe_texts(self) -> List[str]:
        """A fixed slice of the reference replay stream."""
        return self.cached(
            "probe_texts",
            lambda: [
                query.text
                for query in self.query_log.sample_stream(
                    self.PROBE_QUERIES,
                    np.random.default_rng(workloads.POPULATION_SEED),
                )
            ],
        )

    @property
    def parser(self):
        from repro.search.query import QueryParser

        return self.cached("parser", lambda: QueryParser(self.analyzer))

    @property
    def probe_queries(self) -> list:
        return self.cached(
            "probe_queries",
            lambda: [self.parser.parse(t, k=10) for t in self.probe_texts],
        )

    @property
    def scorer(self):
        from repro.search.scoring import BM25Scorer

        return self.cached(
            "scorer",
            lambda: BM25Scorer(
                num_documents=self.index.num_documents,
                average_doc_length=self.index.average_doc_length,
            ),
        )

    def traversal(self, name: str) -> Callable:
        module, function = TRAVERSALS[name]
        return getattr(importlib.import_module(module), function)

    def traverse_floors(self, name: str) -> List[float]:
        """Per probe query, the floor of one traversal strategy."""
        score = self.traversal(name)
        index, scorer = self.index, self.scorer
        return self.cached(
            ("traverse", name),
            lambda: item_floors(
                lambda query: score(index, query, scorer),
                self.probe_queries,
                rounds=self.PROBE_ROUNDS,
            ),
        )

    def traverse_stats(self, name: str) -> list:
        """Per probe query, the traversal's exact work counters."""
        from repro.search.strategy import TraversalStats

        score = self.traversal(name)

        def collect():
            out = []
            for query in self.probe_queries:
                stats = TraversalStats()
                score(self.index, query, self.scorer, stats=stats)
                out.append(stats)
            return out

        return self.cached(("stats", name), collect)

    def parse_floors(self) -> List[float]:
        parser = self.parser
        return self.cached(
            "parse_floors",
            lambda: item_floors(
                lambda text: parser.parse(text, k=10),
                self.probe_texts,
                rounds=self.PROBE_ROUNDS,
            ),
        )

    def execute_floors(self, algorithm: str) -> List[float]:
        """Per probe query, the floor of ``IndexServingNode.execute`` on
        the 1-partition thread-backend node."""
        node = self.isn(1, algorithm)
        return self.cached(
            ("execute", algorithm),
            lambda: item_floors(
                lambda text: node.execute(text, k=10),
                self.probe_texts,
                rounds=self.PROBE_ROUNDS,
            ),
        )

    def probe_hits(self) -> list:
        """Per probe query, its top-10 hits (merge-probe input)."""
        score = self.traversal("daat")
        return self.cached(
            "probe_hits",
            lambda: [
                score(self.index, query, self.scorer)
                for query in self.probe_queries
            ],
        )

    def out_of_vocabulary_text(self) -> str:
        """A query none of whose terms is in the index: it exercises
        parse + dispatch + merge and no traversal."""
        text = "qzxjv wvkqz"
        terms = self.parser.parse(text, k=10).terms
        if not terms or any(self.index.term_info(t) for t in terms):
            raise RuntimeError(f"{text!r} is not out of vocabulary")
        return text

    def close(self) -> None:
        for key, value in self._cache.items():
            if isinstance(key, tuple) and key[0] == "isn":
                value.close()


# ----------------------------------------------------------------------
# layer probes

PROBES: List[tuple] = []


def probe(*names: str):
    """Register a probe that reports the metrics ``names``."""

    def register(fn):
        PROBES.append((names, fn))
        return fn

    return register


@probe("corpus.generate_s", "index.build_s", "index.build_docs_per_s",
       "isn.start_s")
def probe_build(rig: Rig) -> dict:
    rig.isn(1, "daat")
    build_s = rig.timings[("index.build", 1)]
    return {
        "corpus.generate_s": rig.timings["corpus.generate"],
        "index.build_s": build_s,
        "index.build_docs_per_s": len(rig.collection) / build_s,
        "isn.start_s": rig.timings[("isn", 1, "daat", False)],
    }


@probe("query.parse_us")
def probe_parse(rig: Rig) -> dict:
    return {"query.parse_us": median_us(rig.parse_floors())}


@probe("text.analyze_doc_us")
def probe_analyze(rig: Rig) -> dict:
    document = min(
        list(rig.collection)[:200],
        key=lambda doc: abs(len(doc.body.split()) - 250),
    )
    analyze = rig.analyzer.analyze
    return {
        "text.analyze_doc_us": floor_time(
            lambda: analyze(document.body), 10) * 1e6
    }


@probe("dictionary.lookup_us")
def probe_dictionary(rig: Rig) -> dict:
    lookup = rig.index.dictionary.lookup
    terms = [term for query in rig.probe_queries for term in query.terms]

    def look_up_all():
        for term in terms:
            lookup(term)

    return {
        "dictionary.lookup_us": floor_time(look_up_all, 50) / len(terms) * 1e6
    }


def _traversal_probe(name: str) -> None:
    metric = f"{name}.traverse_us"

    @probe(metric)
    def probe_traversal(rig: Rig) -> dict:
        return {metric: median_us(rig.traverse_floors(name))}


for _name in TRAVERSALS:
    _traversal_probe(_name)


@probe("search.postings_per_query", "daat.docs_scored_per_query",
       "bmw.docs_scored_per_query", "bmw.block_skips_per_query",
       "bmw.useful_ratio", "daat.ns_per_posting", "bmw.ns_per_scored_doc")
def probe_traversal_work(rig: Rig) -> dict:
    queries = rig.probe_queries
    postings = sum(
        rig.index.matched_postings_volume(list(q.terms)) for q in queries
    )
    daat = sum(s.docs_scored for s in rig.traverse_stats("daat"))
    bmw = sum(s.docs_scored for s in rig.traverse_stats("bmw"))
    skips = sum(s.block_skips for s in rig.traverse_stats("bmw"))
    returned = sum(len(hits) for hits in rig.probe_hits())
    n = len(queries)
    return {
        "search.postings_per_query": postings / n,
        "daat.docs_scored_per_query": daat / n,
        "bmw.docs_scored_per_query": bmw / n,
        "bmw.block_skips_per_query": skips / n,
        "bmw.useful_ratio": returned / bmw,
        "daat.ns_per_posting": sum(rig.traverse_floors("daat")) / postings * 1e9,
        "bmw.ns_per_scored_doc": sum(rig.traverse_floors("bmw")) / bmw * 1e9,
    }


@probe("scoring.score_block_ns_per_doc")
def probe_score_block(rig: Rig) -> dict:
    rng = np.random.default_rng(0)
    frequencies = rng.integers(1, 20, size=128)
    lengths = rng.integers(50, 600, size=128)
    score_block = rig.scorer.score_block

    def score_many():
        for _ in range(100):
            score_block(frequencies, lengths, 2.5)

    return {
        "scoring.score_block_ns_per_doc":
            floor_time(score_many, 100) / (100 * 128) * 1e9
    }


@probe("topk.offer_ns")
def probe_topk(rig: Rig) -> dict:
    from repro.search.topk import TopKHeap

    scores = np.random.default_rng(0).random(10_000).tolist()

    def replay():
        heap = TopKHeap(10)
        for doc_id, score in enumerate(scores):
            heap.offer(doc_id, score)

    return {"topk.offer_ns": floor_time(replay, 30) / len(scores) * 1e9}


@probe("merger.merge2_us", "merger.merge4_us")
def probe_merger(rig: Rig) -> dict:
    from repro.search.merger import merge_shard_results
    from repro.search.topk import SearchHit

    rng = np.random.default_rng(0)

    def shard_lists(shards):
        return [
            [
                SearchHit(score=float(score), doc_id=int(doc_id))
                for score, doc_id in zip(
                    rng.random(10), rng.integers(0, 1_000_000, 10)
                )
            ]
            for _ in range(shards)
        ]

    return {
        f"merger.merge{shards}_us": floor_time(
            lambda lists=shard_lists(shards): merge_shard_results(lists, 10),
            200,
        ) * 1e6
        for shards in (2, 4)
    }


@probe("isn.execute_us", "isn.self_us", "daat.traverse_share",
       "bmw.traverse_share")
def probe_isn(rig: Rig) -> dict:
    from repro.search.merger import merge_shard_results

    execute = rig.execute_floors("daat")
    merge = item_floors(
        lambda hits: merge_shard_results([hits], 10), rig.probe_hits(), 5
    )
    layers_below = zip(
        execute, rig.parse_floors(), rig.traverse_floors("daat"), merge
    )
    return {
        "isn.execute_us": median_us(execute),
        "isn.self_us": median_us([e - p - t - m for e, p, t, m in layers_below]),
        "daat.traverse_share": sum(rig.traverse_floors("daat")) / sum(execute),
        "bmw.traverse_share": sum(rig.traverse_floors("bmw"))
        / sum(rig.execute_floors("block_max_wand")),
    }


@probe("shared.export_s", "shared.arena_mb")
def probe_shared(rig: Rig) -> dict:
    from repro.index.shared import SharedIndexArena

    partitioned = rig.partitioned(1)
    start = time.perf_counter()
    with SharedIndexArena(partitioned) as arena:
        exported = time.perf_counter() - start
        arena_mb = arena.spec.nbytes / 1e6
    return {"shared.export_s": exported, "shared.arena_mb": arena_mb}


@probe("mp.pool_start_s", "mp.roundtrip_us", "mp.batch16_us_per_query")
def probe_mp(rig: Rig) -> dict:
    """The process backend on the 1-partition index: node construction
    (arena export, fork, attach) up to the first answer, then the round
    trip of a query that does no traversal, then a batch of 16."""
    text = rig.out_of_vocabulary_text()
    start = time.perf_counter()
    node = rig.isn(1, "daat", processes=True)
    node.execute(text, k=10)
    started = time.perf_counter() - start
    batch = rig.probe_texts[:16]
    return {
        "mp.pool_start_s": started,
        "mp.roundtrip_us": floor_time(
            lambda: node.execute(text, k=10), 300) * 1e6,
        "mp.batch16_us_per_query": floor_time(
            lambda: node.execute_batch(batch, k=10), 8) / len(batch) * 1e6,
    }


@probe("snippets.snippet_us")
def probe_snippets(rig: Rig) -> dict:
    from repro.engine.snippets import SnippetGenerator

    generator = SnippetGenerator(rig.analyzer)
    terms = rig.probe_queries[0].terms
    documents = list(rig.collection)[:6]
    return {
        "snippets.snippet_us": median_us(item_floors(
            lambda document: generator.snippet(document, terms), documents, 2
        ))
    }


@probe("service.page_us")
def probe_page(rig: Rig) -> dict:
    """``SearchService.search_page`` on a 300-document service of its
    own: a page costs ten snippets, which depend on document length and
    not on corpus size."""
    from repro.engine.service import SearchService, SearchServiceConfig

    small = workloads.Scale("page", docs=300, sim_queries=0)
    config = SearchServiceConfig(
        corpus=workloads.reference_corpus(small),
        query_log=workloads.QUERY_LOG,
    )
    with SearchService(config) as service:
        floors = item_floors(
            lambda text: service.search_page(text, k=10),
            rig.probe_texts[:4],
            2,
        )
    return {"service.page_us": median_us(floors)}


@probe("index.serialize_mb_per_s", "index.deserialize_mb_per_s",
       "index.bytes_per_posting")
def probe_serialization(rig: Rig) -> dict:
    from repro.corpus.documents import DocumentCollection
    from repro.index.builder import IndexBuilder
    from repro.index.serialization import deserialize_index, serialize_index

    # The codec's rate does not depend on index size; 1,000 documents
    # keep the probe to about two seconds.
    index = IndexBuilder(analyzer=rig.analyzer).build(
        DocumentCollection(documents=list(rig.collection)[:1_000])
    )
    data = serialize_index(index)
    megabytes = len(data) / 1e6
    return {
        "index.serialize_mb_per_s":
            megabytes / floor_time(lambda: serialize_index(index), 2),
        "index.deserialize_mb_per_s":
            megabytes / floor_time(lambda: deserialize_index(data), 2),
        "index.bytes_per_posting": len(data) / index.total_postings,
    }


@probe("sim.kernel_events_per_s", "sim.kernel_cancel_events_per_s")
def probe_sim_kernel(rig: Rig) -> dict:
    from repro.sim.engine import Simulator

    events = 20_000

    def no_op() -> None:
        pass

    def plain():
        sim = Simulator()
        for i in range(events):
            sim.schedule(i * 1e-3, no_op)
        sim.run()

    def cancelling():
        sim = Simulator()
        for i in range(events):
            handle = sim.schedule(i * 1e-3, no_op)
            if i % 2:
                handle.cancel()
        sim.run()

    return {
        "sim.kernel_events_per_s": events / floor_time(plain, 5),
        "sim.kernel_cancel_events_per_s": events / floor_time(cancelling, 5),
    }


_PROBE_SIM_QUERIES = 300


@probe("fanout.plain_simq_per_s", "fanout.tail_simq_per_s",
       "fanout.hedges_per_query", "fanout.build_us")
def probe_fanout(rig: Rig) -> dict:
    n = _PROBE_SIM_QUERIES

    def spec(kind):
        return workloads.CellSpec(kind, kind, 1, n, (4, 2, 40.0))

    plain = workloads.make_cell(spec("plain"))
    tail = workloads.make_cell(spec("tail"))
    hedges = tail()[4]
    one_query = workloads.CellSpec("build", "plain", 1, 1, (4, 2, 40.0))
    return {
        "fanout.plain_simq_per_s": n / floor_time(plain, 3),
        "fanout.tail_simq_per_s": n / floor_time(tail, 3),
        "fanout.hedges_per_query": hedges / n,
        "fanout.build_us": floor_time(
            lambda: workloads.make_cell(one_query)(), 20) * 1e6,
    }


@probe("autoscale.simq_per_s")
def probe_autoscale(rig: Rig) -> dict:
    n = _PROBE_SIM_QUERIES
    cell = workloads.make_cell(
        workloads.CellSpec("autoscale", "autoscale", 1, n, (1, 1, 120.0))
    )
    return {"autoscale.simq_per_s": n / floor_time(cell, 3)}


@probe("isn.threads_2p_over_1p_bmw")
def probe_convoy(rig: Rig) -> dict:
    """Thread-backend Block-Max WAND, 2 partitions over 1: the GIL convoy
    that keeps this configuration out of the end-to-end set.  A ratio of
    *median* latencies: a convoy is what typically happens, and a floor
    would keep only the executions that escaped it."""
    texts = rig.probe_texts[:15]

    def typical(node) -> float:
        samples = [[] for _ in texts]
        for _ in range(5):
            for position, text in enumerate(texts):
                start = time.perf_counter()
                node.execute(text, k=10)
                samples[position].append(time.perf_counter() - start)
        return sum(statistics.median(s) for s in samples)

    return {
        "isn.threads_2p_over_1p_bmw":
            typical(rig.isn(2, "block_max_wand"))
            / typical(rig.isn(1, "block_max_wand"))
    }


def run_probes(rig: Rig) -> tuple:
    """Run every probe; returns ``(values, skipped)``."""
    values: Dict[str, Optional[float]] = {}
    skipped: Dict[str, str] = {}
    for names, fn in PROBES:
        try:
            values.update(fn(rig))
        except Exception as exc:  # a renamed internal must not end the run
            traceback.print_exc()
            for name in names:
                values[name] = None
                skipped[name] = f"{type(exc).__name__}: {exc}"
    return values, skipped


# ----------------------------------------------------------------------
# the traced pipelines

#: span name -> per-layer metric; the root span's self time is "glue".
SPAN_METRICS = {
    "total": "trace.total_us",
    "query.parse": "trace.query_parse_us",
    "search.traverse": "trace.search_traverse_us",
    "mp.dispatch": "trace.mp_dispatch_us",
    "merger.merge": "trace.merger_merge_us",
    "workload.scenario": "trace.workload_scenario_us",
    "cluster.fanout.plain": "trace.fanout_plain_us",
    "cluster.fanout.tail": "trace.fanout_tail_us",
    "sim.autoscale": "trace.autoscale_us",
    "metrics.summary": "trace.metrics_summary_us",
    "glue": "trace.glue_us",
}


def native_pipelines(rig: Rig, workload, recorder: SpanRecorder) -> tuple:
    """``(untraced, traced)`` runners of a native workload.

    Untraced is ``IndexServingNode.execute``; traced is the same
    pipeline step by step: parse, one traversal per shard (or one
    dispatch to the worker pool), merge.
    """
    from repro.search.executor import ShardSearcher
    from repro.search.global_stats import global_scorer_factory
    from repro.search.merger import merge_shard_results

    engine = workload.engine
    partitions = engine["num_partitions"]
    processes = "execution" in engine
    node = rig.isn(partitions, engine["algorithm"], processes)
    partitioned = rig.partitioned(partitions)
    parser = rig.parser
    span = recorder.span

    if processes:
        pool = node.process_pool
        # Shards dealt round-robin into one batch per worker, as the
        # node's own process fan-out does.
        lanes = min(pool.num_workers, partitions)
        batches = [
            list(range(lane, partitions, lanes)) for lane in range(lanes)
        ]

        def fan_out(query):
            with span("mp.dispatch"):
                futures = [
                    pool.submit_batch([(shard, query) for shard in batch])
                    for batch in batches
                ]
                return [
                    result.hits
                    for future in futures
                    for _, result, _, _ in future.result()
                ]

    else:
        scorer_factory = global_scorer_factory(partitioned)
        searchers = [
            ShardSearcher(
                shard, algorithm=engine["algorithm"],
                scorer_factory=scorer_factory,
            )
            for shard in partitioned
        ]

        def fan_out(query):
            hits = []
            for searcher in searchers:
                with span("search.traverse"):
                    hits.append(searcher.search(query, k=10).hits)
            return hits

    def traced(position, op):
        with span("query", position):
            with span("query.parse"):
                query = parser.parse(op.payload, k=10)
            shard_hits = fan_out(query)
            with span("merger.merge"):
                hits = merge_shard_results(shard_hits, k=10)
        return SimpleNamespace(hits=hits, coverage=1.0)

    return (lambda op: node.execute(op.payload, k=10)), traced


def des_pipelines(workload, scale, recorder: SpanRecorder) -> tuple:
    """``(untraced, traced)`` runners of the simulation sweep.

    Untraced is the cell through ``repro.api``; traced builds the
    scenario, runs the broker and summarises, each under its own span.
    """
    from repro.cluster.fanout import run_fanout_open_loop
    from repro.sim.autoscale import run_autoscaled_cluster
    from repro.workload.arrivals import PoissonArrivals
    from repro.workload.scenario import WorkloadScenario

    span = recorder.span
    prepared = {}
    for spec in workloads.cell_specs(workload.num_ops, scale):
        if spec.kind == "autoscale":
            prepared[spec.key] = (spec, workloads.autoscale_inputs(spec))
        else:
            prepared[spec.key] = (
                spec, workloads.cluster_config(spec).to_fanout_config()
            )

    def traced(position, op):
        spec, inputs = prepared[op.key]
        with span("cell", position):
            if spec.kind == "autoscale":
                with span("sim.autoscale"):
                    result = run_autoscaled_cluster(*inputs, seed=spec.seed)
            else:
                with span("workload.scenario"):
                    scenario = WorkloadScenario(
                        arrivals=PoissonArrivals(rate=spec.params[2]),
                        demands=workloads.DEMAND,
                        num_queries=spec.num_queries,
                    )
                with span(f"cluster.fanout.{spec.kind}"):
                    result = run_fanout_open_loop(
                        inputs, scenario, seed=spec.seed
                    )
            with span("metrics.summary"):
                return workloads.cell_summary(spec, result)

    return (lambda op: op.payload()), traced


def trace_run(
    workload, scale, seed, seconds, check, quick, span_path
) -> dict:
    """The whole traced run; returns the outcome ``run.py`` reports."""
    rig = Rig(scale)
    recorder = SpanRecorder()
    max_rounds = 2 if quick else None
    try:
        if workload.family == "native":
            untraced, traced = native_pipelines(rig, workload, recorder)
            population = workload.population(rig, scale)
        else:
            untraced, traced = des_pipelines(workload, scale, recorder)
            population = workload.build(scale)
        ops = workloads.replay_order(population, seed)
        # One round is an untraced pass then a traced pass, so both see
        # the same interference: the first half of the floors is the
        # untraced run, the second half the traced one.
        passes = [(False, i, op) for i, op in enumerate(ops)] + [
            (True, i, op) for i, op in enumerate(ops)
        ]
        window = estimator.measure(
            passes,
            lambda item: (
                traced(item[1], item[2]) if item[0] else untraced(item[2])
            ),
            lambda item, output: check(item[2], output),
            seconds * 0.5,
            max_rounds,
        )
        recorder.write(span_path)
        values, skipped = run_probes(rig)
    finally:
        rig.close()
    plain_floors = window.floors_s[: len(ops)]

    floors = recorder.per_op_floors()
    for name, metric in SPAN_METRICS.items():
        by_op = floors.get(name)
        values[metric] = median_us(by_op.values()) if by_op else 0.0
    traced_over_untraced = (
        sum(floors["total"].values()) / sum(plain_floors)
        if window.complete else None
    )
    values["trace.spans_per_op"] = len(recorder.records) / (
        window.attempted / 2
    )
    values["trace.overhead_pct"] = (
        (traced_over_untraced - 1.0) * 100.0 if window.complete else None
    )
    noise = estimator.round_diagnostics(window.round_times_s)
    stream_ops = sum(op.weight for op in ops)
    values["noise.rounds"] = float(noise["rounds"])
    values["noise.round_spread"] = noise["round_spread"]
    # Whole-round throughput of the untraced pass, had it been reported
    # instead of the floor: the floor qps over the round spread.
    values["raw.qps_median_round"] = (
        stream_ops * workload.work_per_op(scale)
        / sum(op.weight * floor for op, floor in zip(ops, plain_floors))
        / noise["round_spread"]
        if window.complete else None
    )

    return {
        "metrics": values,
        "units": catalogue.PER_LAYER_UNITS,
        "attempted": window.attempted,
        "failed": window.failed,
        "correct": window.failed == 0 and window.complete,
        "failures": window.failures,
        "probes_skipped": skipped,
        "ops": stream_ops,
        "distinct_ops": len(ops),
        "rounds": noise["rounds"],
        "noisy": noise["noisy"],
        "spans": len(recorder.records),
        "span_file": str(span_path),
        # Σ span self times == Σ root durations; the issue's acceptance
        # check compares it with the untraced execute on daat_1p.
        "traced_over_untraced": traced_over_untraced,
    }
