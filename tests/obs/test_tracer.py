"""Span nesting, attribute capture, and the untraced-run no-op."""

import time

from repro.obs.telemetry import span_on
from repro.obs.tracer import NOOP_SPAN, Span, Tracer


class TestNesting:
    def test_spans_nest_by_dynamic_scope(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("sibling"):
                pass
        assert [root.name for root in tracer.roots] == ["outer"]
        outer = tracer.roots[0]
        assert [child.name for child in outer.children] == \
            ["inner", "sibling"]
        assert outer.children[0].children == []

    def test_sequential_roots(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [root.name for root in tracer.roots] == \
            ["first", "second"]

    def test_current_tracks_open_span(self):
        tracer = Tracer()
        assert tracer.current is None
        with tracer.span("open") as span:
            assert tracer.current is span
        assert tracer.current is None

    def test_exception_still_closes_span(self):
        tracer = Tracer()
        try:
            with tracer.span("boom"):
                raise ValueError("x")
        except ValueError:
            pass
        assert tracer.current is None
        assert tracer.roots[0].duration_ns >= 0

    def test_walk_is_preorder(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
            with tracer.span("d"):
                pass
        names = [span.name for span in tracer.roots[0].walk()]
        assert names == ["a", "b", "c", "d"]


class TestTiming:
    def test_duration_measures_wall_time(self):
        tracer = Tracer()
        with tracer.span("sleep") as span:
            time.sleep(0.001)
        assert span.duration_ns >= 1_000_000  # at least 1 ms

    def test_open_span_reports_zero(self):
        span = Span("open", Tracer())
        assert span.duration_ns == 0


class TestAttributes:
    def test_attributes_captured_at_open(self):
        tracer = Tracer()
        with tracer.span("q", rows=5, kind="range") as span:
            pass
        assert span.attributes == {"rows": 5, "kind": "range"}

    def test_set_attribute_during_span(self):
        tracer = Tracer()
        with tracer.span("q") as span:
            span.set_attribute("rows", 42)
        assert span.to_dict()["attributes"] == {"rows": 42}

    def test_to_dict_includes_children(self):
        tracer = Tracer()
        with tracer.span("parent"):
            with tracer.span("child"):
                pass
        doc = tracer.to_dict()
        assert doc["spans"][0]["children"][0]["name"] == "child"


class TestDisabled:
    """An untraced run has no telemetry: its span sites get the one
    shared no-op from :func:`span_on`."""

    def test_disabled_returns_shared_noop(self):
        assert span_on(None, "x") is NOOP_SPAN
        assert span_on(None, "y", rows=1) is NOOP_SPAN

    def test_noop_records_nothing(self):
        with span_on(None, "x") as span:
            span.set_attribute("ignored", 1)
        assert NOOP_SPAN.attributes == {}
        assert NOOP_SPAN.duration_ns == 0

    def test_noop_span_cost_is_negligible(self):
        """Untraced spans must be enter/exit of one shared object.

        100k open/close cycles in well under a second — the bound is
        deliberately loose (CI machines vary) but catches any
        accidental allocation or clock read on the untraced path.
        """
        start = time.perf_counter()
        for _ in range(100_000):
            with span_on(None, "hot"):
                pass
        elapsed = time.perf_counter() - start
        assert elapsed < 0.5

    def test_on_end_fires_per_close(self):
        ended = []
        tracer = Tracer(on_end=ended.append)
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        assert [span.name for span in ended] == ["b", "a"]
