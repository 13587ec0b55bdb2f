"""The Telemetry bundle: span histograms, JSON export, activation."""

import json

from repro.obs import runtime
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import Telemetry, span_on
from repro.obs.tracer import NOOP_SPAN


class TestSpanHistograms:
    def test_closed_spans_feed_histograms(self):
        telemetry = Telemetry()
        for _ in range(2):
            with telemetry.span("ContScan"):
                pass
        summary = telemetry.metrics.histograms()["span.ContScan"]
        assert summary["count"] == 2

    def test_operator_profile_strips_prefix(self):
        telemetry = Telemetry()
        with telemetry.span("HashJoin.build"):
            pass
        telemetry.metrics.observe("other.metric", 1.0)
        profile = telemetry.operator_profile()
        assert "HashJoin.build" in profile
        assert "other.metric" not in profile


    def test_disabled_records_no_spans(self):
        """An untraced run has no telemetry at all: its span sites go
        through ``span_on(None, …)``, which hands out the shared
        no-op; the same site on a traced run files its duration."""
        with span_on(None, "ContScan", rows=3) as span:
            span.set_attribute("ignored", 1)
        assert span is NOOP_SPAN and NOOP_SPAN.attributes == {}
        telemetry = Telemetry()
        with span_on(telemetry, "ContScan", rows=3):
            pass
        assert telemetry.operator_profile()["ContScan"]["count"] == 1
        assert telemetry.tracer.roots[0].attributes == {"rows": 3}


class TestSharedRegistry:
    def test_external_registry_is_used_directly(self):
        registry = MetricsRegistry()
        telemetry = Telemetry(metrics=registry)
        assert telemetry.metrics is registry
        with telemetry.span("X"):
            pass
        assert "span.X" in registry.histograms()


class TestJsonExport:
    def test_document_shape(self):
        telemetry = Telemetry()
        with telemetry.span("Execute", query="/a/b"):
            telemetry.metrics.add("decompressions", 3)
        doc = json.loads(telemetry.to_json(indent=2))
        assert sorted(doc) == ["diagnostics", "metrics", "operators",
                               "stats", "trace"]
        assert sum(doc["stats"].values()) == 0  # no engine run here
        assert list(doc["stats"]) == sorted(telemetry.stats.FIELDS)
        assert sorted(doc["metrics"]) == ["counters", "gauges",
                                          "histograms"]
        assert doc["metrics"]["counters"]["decompressions"] == 3
        assert doc["trace"]["spans"][0]["name"] == "Execute"
        assert doc["trace"]["spans"][0]["attributes"]["query"] == "/a/b"

    def test_operators_section_matches_profile(self):
        telemetry = Telemetry()
        with telemetry.span("Parent"):
            pass
        doc = json.loads(telemetry.to_json())
        assert doc["operators"]["Parent"]["count"] == 1


class TestRuntimeActivation:
    def test_activated_sets_and_restores(self):
        telemetry = Telemetry()
        assert runtime.ACTIVE is None
        with runtime.activated(telemetry):
            assert runtime.ACTIVE is telemetry
        assert runtime.ACTIVE is None

    def test_disabled_telemetry_deactivates(self):
        with runtime.activated(Telemetry()):
            with runtime.activated(None):  # an untraced nested run
                assert runtime.ACTIVE is None

    def test_reentrant_restores_previous(self):
        outer = Telemetry()
        inner = Telemetry()
        with runtime.activated(outer):
            with runtime.activated(inner):
                assert runtime.ACTIVE is inner
            assert runtime.ACTIVE is outer

    def test_helpers_report_to_active_registry(self):
        telemetry = Telemetry()
        with runtime.activated(telemetry):
            runtime.add("container.scans", 2)
            runtime.record_codec("decode", "alm", 10, 25)
            runtime.record_page_reads(3)
        counters = telemetry.metrics.counters()
        assert counters["container.scans"] == 2
        assert counters["codec.alm.decode.calls"] == 1
        assert counters["codec.alm.decode.compressed_bytes"] == 10
        assert counters["codec.alm.decode.plain_chars"] == 25
        assert counters["btree.page_reads"] == 3

    def test_helpers_are_silent_when_inactive(self):
        runtime.add("nothing")  # must not raise, must not record
        assert runtime.ACTIVE is None


class TestDeterministicExport:
    def test_json_keys_sorted_at_every_level(self):
        telemetry = Telemetry()
        telemetry.metrics.add("zeta", 1)
        telemetry.metrics.add("alpha", 2)
        with telemetry.span("B"):
            pass
        with telemetry.span("A"):
            pass
        text = telemetry.to_json()
        doc = json.loads(text)
        assert list(doc) == sorted(doc)
        assert list(doc["metrics"]["counters"]) == ["alpha", "zeta"]
        assert list(doc["operators"]) == ["A", "B"]

    def test_operator_profile_order_independent_of_span_order(self):
        def run(names):
            telemetry = Telemetry()
            for name in names:
                with telemetry.span(name):
                    pass
            return list(telemetry.operator_profile())

        assert run(["C", "A", "B"]) == run(["B", "C", "A"]) \
            == ["A", "B", "C"]

    def test_identical_runs_export_identically(self):
        def run():
            telemetry = Telemetry()
            telemetry.metrics.add("decompressions", 5)
            telemetry.metrics.observe("span.Select", 100.0)
            return telemetry.to_json(indent=2)

        assert run() == run()

    def test_default_str_keeps_foreign_values_serializable(self):
        telemetry = Telemetry()
        with telemetry.span("Op", where=object()):
            pass
        json.loads(telemetry.to_json())  # must not raise
