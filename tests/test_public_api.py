"""Public-API surface checks.

Every ``__all__`` name in every package must resolve, and the
top-level quickstart path must work — the contract a downstream
adopter relies on.
"""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.text",
    "repro.corpus",
    "repro.index",
    "repro.search",
    "repro.engine",
    "repro.sim",
    "repro.cluster",
    "repro.servers",
    "repro.workload",
    "repro.metrics",
    "repro.obs",
    "repro.analysis",
    "repro.cache",
    "repro.core",
    "repro.resilience",
]


class TestPublicApi:
    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_all_names_resolve(self, package_name):
        package = importlib.import_module(package_name)
        assert hasattr(package, "__all__"), f"{package_name} lacks __all__"
        for name in package.__all__:
            assert hasattr(package, name), (
                f"{package_name}.__all__ lists {name!r} "
                "but the attribute is missing"
            )

    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_package_docstring(self, package_name):
        package = importlib.import_module(package_name)
        assert package.__doc__ and len(package.__doc__.strip()) > 40

    def test_version(self):
        import repro

        assert repro.__version__

    def test_quickstart_contract(self):
        """The README's quickstart snippet, verbatim in spirit."""
        from repro import (
            CorpusConfig,
            QueryLogConfig,
            SearchService,
            VocabularyConfig,
        )

        service = SearchService(
            corpus=CorpusConfig(
                num_documents=100,
                vocabulary=VocabularyConfig(size=800),
                mean_length=40,
            ),
            query_log=QueryLogConfig(num_unique_queries=20),
            num_partitions=2,
        )
        with service:
            response = service.search(service.query_log[0].text)
            for hit in response.hits:
                document = service.document(hit.doc_id)
                assert document.title is not None
            assert response.timings.total_seconds > 0
