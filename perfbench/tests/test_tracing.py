"""Self-time arithmetic and span recording."""

import pytest

from tracing import Span, Tracer, covered, self_times


def _span(span_id, name, start, end, parent=None):
    return Span(span_id=span_id, name=name, start=start, end=end, parent=parent, request="r")


class TestSelfTime:
    def test_parent_minus_children(self):
        spans = [
            _span(0, "root", 0.0, 10.0),
            _span(1, "a", 1.0, 4.0, parent=0),
            _span(2, "b", 5.0, 6.0, parent=0),
            _span(3, "a.inner", 2.0, 3.0, parent=1),
        ]
        selfs = self_times(spans)
        assert selfs == {0: pytest.approx(6.0), 1: pytest.approx(2.0),
                         2: pytest.approx(1.0), 3: pytest.approx(1.0)}
        assert sum(selfs.values()) == pytest.approx(10.0)

    def test_overlapping_children_count_once(self):
        spans = [
            _span(0, "root", 0.0, 10.0),
            _span(1, "t1", 1.0, 5.0, parent=0),
            _span(2, "t2", 3.0, 7.0, parent=0),
        ]
        assert self_times(spans)[0] == pytest.approx(4.0)

    def test_children_clipped_to_parent(self):
        assert covered([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(3.0)
        assert covered([], 0.0, 10.0) == 0.0


class TestTracer:
    def test_nesting_and_request_ids(self):
        tracer = Tracer()
        with tracer.span("outer", request="q1") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent == outer.span_id
        assert inner.request == "q1"
        assert outer.parent is None
        assert outer.start <= inner.start <= inner.end <= outer.end
        assert {s.name for s in tracer.spans} == {"outer", "inner"}

    def test_disabled_tracer_times_but_keeps_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("x") as record:
            pass
        assert record.duration >= 0.0
        assert tracer.spans == []

    def test_patched_wraps_then_restores(self):
        class Layer:
            def call(self, value):
                return value * 2

        original = Layer.__dict__["call"]
        tracer = Tracer()
        with tracer.patched([(Layer, "call", "layer.call")]):
            with tracer.span("request", request="q7"):
                assert Layer().call(3) == 6
        assert Layer.__dict__["call"] is original
        call = next(s for s in tracer.spans if s.name == "layer.call")
        assert call.request == "q7"

    def test_write_is_json_lines(self, tmp_path):
        import json

        tracer = Tracer()
        with tracer.span("a", request="r"):
            pass
        path = tmp_path / "spans.jsonl"
        tracer.write(path)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows[0]["name"] == "a" and rows[0]["request"] == "r"
        assert set(rows[0]) == {"span_id", "name", "start", "end", "parent", "request"}
