"""The ``repro.api`` facade: construction, protocol, and deprecations."""

import warnings

import pytest

import repro
from repro.api import (
    ClusterConfig,
    ClusterModel,
    CorpusConfig,
    EngineConfig,
    ExecutionConfig,
    FanoutQueryRecord,
    HedgingPolicy,
    HiccupConfig,
    IsnResponse,
    PartitionModelConfig,
    QueryLogConfig,
    QueryOutcome,
    SearchEngine,
    SearchPage,
    VocabularyConfig,
)

TINY_ENGINE = EngineConfig(
    corpus=CorpusConfig(
        num_documents=150,
        vocabulary=VocabularyConfig(size=1_000, seed=3),
        mean_length=40,
        seed=11,
    ),
    query_log=QueryLogConfig(num_unique_queries=20, seed=5),
    num_partitions=2,
)


@pytest.fixture(scope="module")
def engine():
    with SearchEngine(TINY_ENGINE) as engine:
        yield engine


class TestFacadeSurface:
    def test_blessed_import_line(self):
        # The one import the docs promise.
        from repro.api import (  # noqa: F401
            ClusterModel,
            HedgingPolicy,
            SearchEngine,
        )

    def test_top_level_reexports(self):
        assert repro.SearchEngine is SearchEngine
        assert repro.ClusterModel is ClusterModel
        assert repro.HedgingPolicy is HedgingPolicy
        assert repro.api.__name__ == "repro.api"

    def test_all_names_resolve(self):
        for name in repro.api.__all__:
            assert getattr(repro.api, name) is not None

    def test_importing_api_emits_no_deprecation_warnings(self):
        import importlib

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            importlib.reload(repro.api)


class TestSearchEngine:
    def test_config_is_keyword_only(self):
        with pytest.raises(TypeError):
            EngineConfig(CorpusConfig())

    def test_config_xor_overrides(self):
        with pytest.raises(TypeError):
            SearchEngine(TINY_ENGINE, num_partitions=4)

    def test_overrides_build_a_config(self, engine):
        assert engine.config.num_partitions == 2
        assert engine.num_partitions == 2

    def test_search_returns_protocol_outcome(self, engine):
        response = engine.search(engine.query_log[0].text, k=5)
        assert isinstance(response, IsnResponse)
        assert isinstance(response, QueryOutcome)
        assert response.latency_s > 0
        assert response.coverage == 1.0
        assert len(response.doc_ids()) <= 5

    def test_search_page_is_a_list_and_an_outcome(self, engine):
        page = engine.search_page(engine.query_log[0].text, k=5)
        assert isinstance(page, SearchPage)
        assert isinstance(page, list)
        assert isinstance(page, QueryOutcome)
        assert page.latency_s > 0
        assert page.coverage == 1.0
        assert page.doc_ids() == [entry.hit.doc_id for entry in page]

    def test_document_lookup(self, engine):
        response = engine.search(engine.query_log[0].text, k=1)
        if response.doc_ids():
            document = engine.document(response.doc_ids()[0])
            assert document.url

    def test_hedging_policy_threads_through(self):
        config = EngineConfig(
            corpus=TINY_ENGINE.corpus,
            query_log=TINY_ENGINE.query_log,
            num_partitions=2,
            hedging=HedgingPolicy(hedge_delay_s=0.05),
        )
        with SearchEngine(config) as engine:
            assert engine.isn.hedging is not None
            response = engine.search(engine.query_log[0].text)
            assert response.coverage == 1.0


class TestClusterModel:
    def test_run_returns_protocol_outcomes(self):
        model = ClusterModel(num_servers=2, num_partitions=4)
        result = model.run(rate_qps=50.0, num_queries=100, seed=1)
        assert len(result) == 100
        record = result.records[0]
        assert isinstance(record, FanoutQueryRecord)
        assert isinstance(record, QueryOutcome)
        assert record.latency_s > 0
        assert record.coverage == 1.0
        assert record.doc_ids() == []

    def test_config_xor_overrides(self):
        with pytest.raises(TypeError):
            ClusterModel(ClusterConfig(num_servers=2), num_servers=4)

    def test_num_partitions_shortcut_builds_partitioning(self):
        model = ClusterModel(num_partitions=8)
        assert model.fanout_config.partitioning.num_partitions == 8

    def test_inconsistent_partitioning_rejected(self):
        config = ClusterConfig(
            num_partitions=8,
            partitioning=PartitionModelConfig(num_partitions=4),
        )
        with pytest.raises(ValueError):
            config.to_fanout_config()

    def test_tail_features_reach_the_fanout_config(self):
        policy = HedgingPolicy(hedge_delay_s=0.01, deadline_s=0.2)
        model = ClusterModel(
            num_servers=2,
            replicas_per_shard=2,
            hiccups=HiccupConfig(mean_interval=1.0, pause_duration=0.02),
            hedging=policy,
        )
        fanout = model.fanout_config
        assert fanout.hedging is policy
        assert fanout.replicas_per_shard == 2


class TestExecutionConfigApi:
    """The execution surface: one ``ExecutionConfig``, no legacy spelling."""

    def test_execution_config_is_exported(self):
        assert "ExecutionConfig" in repro.api.__all__
        assert "EXECUTION_BACKENDS" in repro.api.__all__
        assert repro.api.EXECUTION_BACKENDS == ("threads", "processes")

    def test_new_spelling_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            config = EngineConfig(
                corpus=TINY_ENGINE.corpus,
                query_log=TINY_ENGINE.query_log,
                num_partitions=2,
                execution=ExecutionConfig(backend="threads", workers=3),
            )
        assert config.execution.workers == 3

    def test_num_threads_kwarg_is_rejected(self, engine):
        """The removed spelling is an ordinary TypeError at every layer."""
        from repro.engine.isn import IndexServingNode
        from repro.engine.service import SearchServiceConfig

        with pytest.raises(TypeError, match="num_threads"):
            EngineConfig(num_partitions=2, num_threads=3)
        with pytest.raises(TypeError, match="num_threads"):
            SearchServiceConfig(num_partitions=2, num_threads=4)
        with pytest.raises(TypeError, match="num_threads"):
            IndexServingNode(engine.partitioned, num_threads=2)
        with pytest.raises(TypeError, match="num_threads"):
            SearchEngine(num_threads=2)

    def test_process_backend_engine_round_trip(self):
        config = EngineConfig(
            corpus=TINY_ENGINE.corpus,
            query_log=TINY_ENGINE.query_log,
            num_partitions=2,
            execution=ExecutionConfig(backend="processes", workers=2),
        )
        with SearchEngine(config) as engine:
            texts = [q.text for q in engine.query_log[:4]]
            singles = [engine.search(text, k=5) for text in texts]
            batched = engine.search_batch(texts, k=5)
            for one, many in zip(singles, batched):
                assert many.doc_ids() == one.doc_ids()
        # close() tore the pool and shared segment down; the engine is
        # now unusable, deterministically.
        with pytest.raises(RuntimeError):
            engine.search(texts[0])
