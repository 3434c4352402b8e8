"""Tests for the span tracer: nesting, parenting, no-op mode, schema."""

import json
import threading

import pytest

from repro.obs.export import (
    TRACE_SCHEMA_FIELDS,
    export_trace_jsonl,
    format_span_tree,
    span_to_dict,
    trace_to_dicts,
)
from repro.obs.tracing import NULL_TRACER, Span, Tracer


class FakeClock:
    """Deterministic, strictly-advancing clock for byte-stable traces."""

    def __init__(self, step: float = 1.0):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


class TestSpanNesting:
    def test_root_span_collected(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("root"):
            pass
        assert len(tracer.traces) == 1
        assert tracer.traces[0].name == "root"
        assert tracer.traces[0].parent_id is None

    def test_children_nest_under_active_span(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("root") as root:
            with tracer.span("child") as child:
                with tracer.span("grandchild") as grandchild:
                    pass
        assert root.children == [child]
        assert child.children == [grandchild]
        assert child.parent_id == root.span_id
        assert grandchild.parent_id == child.span_id
        # Only the root lands in the trace buffer.
        assert tracer.traces == [root]

    def test_trace_id_shared_within_tree(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("a") as a:
            with tracer.span("b") as b:
                pass
        with tracer.span("c") as c:
            pass
        assert a.trace_id == b.trace_id
        assert c.trace_id == a.trace_id + 1

    def test_span_ids_unique(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("root") as root:
            with tracer.span("x"):
                pass
            with tracer.span("y"):
                pass
        ids = [span.span_id for span in root.iter_tree()]
        assert len(ids) == len(set(ids))

    def test_siblings_ordered(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("root") as root:
            for name in ("first", "second", "third"):
                with tracer.span(name):
                    pass
        assert [child.name for child in root.children] == [
            "first", "second", "third"
        ]

    def test_timestamps_monotonic_and_contained(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("root") as root:
            with tracer.span("child") as child:
                pass
        assert root.start < child.start < child.end < root.end
        assert root.duration > child.duration

    def test_current_span_tracks_stack(self):
        tracer = Tracer(clock=FakeClock())
        assert tracer.current_span is None
        with tracer.span("outer") as outer:
            assert tracer.current_span is outer
            with tracer.span("inner") as inner:
                assert tracer.current_span is inner
            assert tracer.current_span is outer
        assert tracer.current_span is None

    def test_attributes_stored_and_settable(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("root", shard=3) as root:
            root.set("postings_scanned", 128)
        assert root.attributes == {"shard": 3, "postings_scanned": 128}

    def test_find_child_by_name(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("root") as root:
            with tracer.span("parse"):
                pass
            with tracer.span("merge"):
                pass
        assert root.find("merge").name == "merge"
        assert root.find("absent") is None


class TestRecordSpan:
    def test_explicit_timestamps_kept_verbatim(self):
        tracer = Tracer()
        span = tracer.record_span("shard", start=1.25, end=4.5, parent=None)
        assert span.start == 1.25
        assert span.end == 4.5
        assert span.duration == pytest.approx(3.25)

    def test_explicit_parent(self):
        tracer = Tracer()
        root = tracer.record_span("root", start=0.0, end=10.0, parent=None)
        child = tracer.record_span("c", start=1.0, end=2.0, parent=root)
        assert root.children == [child]
        assert child.trace_id == root.trace_id
        assert tracer.traces == [root]

    def test_inherits_active_live_span(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("live") as live:
            recorded = tracer.record_span("post-hoc", start=0.0, end=1.0)
        assert live.children == [recorded]

    def test_no_active_span_makes_root(self):
        tracer = Tracer()
        span = tracer.record_span("standalone", start=0.0, end=1.0)
        assert span.parent_id is None
        assert tracer.traces == [span]

    def test_worker_thread_records_under_explicit_parent(self):
        tracer = Tracer()
        root = tracer.record_span("root", start=0.0, end=10.0, parent=None)

        def worker():
            tracer.record_span("shard", start=1.0, end=2.0, parent=root)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(root.children) == 8
        assert len({span.span_id for span in root.iter_tree()}) == 9

    def test_max_traces_bounds_buffer(self):
        tracer = Tracer(max_traces=3)
        for index in range(5):
            tracer.record_span(f"t{index}", start=0.0, end=1.0, parent=None)
        assert [span.name for span in tracer.traces] == ["t2", "t3", "t4"]


class TestDisabledTracer:
    def test_span_is_noop(self):
        tracer = Tracer(enabled=False)
        with tracer.span("anything", attr=1) as span:
            span.set("key", "value")  # must not raise
        assert tracer.traces == []

    def test_record_span_returns_none(self):
        tracer = Tracer(enabled=False)
        assert tracer.record_span("x", start=0.0, end=1.0) is None
        assert tracer.traces == []

    def test_null_tracer_shared_and_disabled(self):
        assert NULL_TRACER.enabled is False
        with NULL_TRACER.span("x"):
            pass
        assert NULL_TRACER.traces == []

    def test_disabled_span_object_is_shared(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("a") is tracer.span("b")


def build_golden_trace() -> Span:
    """A fixed two-level trace with deterministic ids and timestamps."""
    tracer = Tracer()
    root = tracer.record_span(
        "isn.execute", start=0.0, end=10.0, parent=None, query="golden", k=10
    )
    tracer.record_span("parse", start=0.0, end=1.0, parent=root, num_terms=1)
    fanout = tracer.record_span("fanout", start=1.0, end=9.0, parent=root)
    tracer.record_span(
        "shard", start=1.0, end=8.0, parent=fanout,
        shard=0, postings_scanned=42, num_hits=10,
    )
    tracer.record_span("merge", start=9.0, end=10.0, parent=root, num_shards=1)
    return root


GOLDEN_JSONL = "\n".join(
    [
        '{"trace_id": 0, "span_id": 0, "parent_id": null, "name": '
        '"isn.execute", "start": 0.0, "end": 10.0, "duration_seconds": 10.0, '
        '"attributes": {"query": "golden", "k": 10}}',
        '{"trace_id": 0, "span_id": 1, "parent_id": 0, "name": "parse", '
        '"start": 0.0, "end": 1.0, "duration_seconds": 1.0, '
        '"attributes": {"num_terms": 1}}',
        '{"trace_id": 0, "span_id": 2, "parent_id": 0, "name": "fanout", '
        '"start": 1.0, "end": 9.0, "duration_seconds": 8.0, "attributes": {}}',
        '{"trace_id": 0, "span_id": 3, "parent_id": 2, "name": "shard", '
        '"start": 1.0, "end": 8.0, "duration_seconds": 7.0, '
        '"attributes": {"shard": 0, "postings_scanned": 42, "num_hits": 10}}',
        '{"trace_id": 0, "span_id": 4, "parent_id": 0, "name": "merge", '
        '"start": 9.0, "end": 10.0, "duration_seconds": 1.0, '
        '"attributes": {"num_shards": 1}}',
    ]
) + "\n"


class TestExportSchema:
    def test_span_dict_fields_exact(self):
        root = build_golden_trace()
        for record in trace_to_dicts(root):
            assert tuple(record.keys()) == TRACE_SCHEMA_FIELDS

    def test_golden_jsonl_bytes(self, tmp_path):
        """The exported JSON-lines must match the golden schema verbatim."""
        path = tmp_path / "trace.jsonl"
        assert export_trace_jsonl([build_golden_trace()], path) == 5
        assert path.read_text() == GOLDEN_JSONL

    def test_jsonl_parses_and_links(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        export_trace_jsonl([build_golden_trace()], path)
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        by_id = {record["span_id"]: record for record in records}
        for record in records:
            parent_id = record["parent_id"]
            if parent_id is not None:
                parent = by_id[parent_id]
                assert parent["start"] <= record["start"]
                assert record["end"] <= parent["end"]
                assert parent["trace_id"] == record["trace_id"]

    def test_span_to_dict_copies_attributes(self):
        root = build_golden_trace()
        exported = span_to_dict(root)
        exported["attributes"]["mutated"] = True
        assert "mutated" not in root.attributes


class TestFormatSpanTree:
    def test_tree_rendering(self):
        text = format_span_tree(build_golden_trace())
        lines = text.splitlines()
        assert lines[0].startswith("isn.execute")
        assert any("├─ parse" in line for line in lines)
        assert any("│  └─ shard" in line for line in lines)
        assert any("└─ merge" in line for line in lines)
        # Durations render in milliseconds.
        assert "10000.000 ms" in lines[0]

    def test_attributes_inline(self):
        text = format_span_tree(build_golden_trace())
        assert "postings_scanned=42" in text
