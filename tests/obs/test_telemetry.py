"""The Telemetry run record: operator profile, JSON export."""

import json

from repro.obs.telemetry import Telemetry, span_on
from repro.obs.tracer import NOOP_SPAN


def _profile(durations, name="Op", **attributes):
    """The profile row of finished spans of the given durations."""
    telemetry = Telemetry()
    for duration in durations:
        telemetry.tracer.record(name, 1000, 1000 + duration, **attributes)
    return telemetry.operator_profile()[name]


class TestSpanHistograms:
    def test_closed_spans_feed_histograms(self):
        """Every finished span, nested ones included, counts in its
        name's distribution; a span still open does not."""
        telemetry = Telemetry()
        with telemetry.span("Execute"):
            for _ in range(2):
                with telemetry.span("ContScan"):
                    pass
            profile = telemetry.operator_profile()
        assert profile["ContScan"]["count"] == 2
        assert "Execute" not in profile
        assert telemetry.operator_profile()["Execute"]["count"] == 1

    def test_operator_profile_strips_prefix(self):
        """Profile rows are keyed by the bare span name."""
        telemetry = Telemetry()
        with telemetry.span("HashJoin.build"):
            pass
        assert list(telemetry.operator_profile()) == ["HashJoin.build"]


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


class TestProfileSummary:
    """Each profile row summarizes its spans' durations exactly:
    nearest-rank percentiles over every one of them."""

    def test_no_finished_span_no_row(self):
        telemetry = Telemetry()
        assert telemetry.operator_profile() == {}
        with telemetry.span("Op"):
            assert telemetry.operator_profile() == {}

    def test_nearest_rank_percentiles(self):
        row = _profile(range(1, 101))  # 1..100
        assert row["p50"] == 51  # round(0.5 * 99) = 50th index
        assert row["p95"] == 95
        assert row["p99"] == 99
        assert row["max"] == 100

    def test_summary_fields(self):
        row = _profile((3, 1, 2), rows=4, batches=1)
        assert row == {"count": 3, "total": 6, "max": 3, "p50": 2,
                       "p95": 3, "p99": 3, "rows": 12, "batches": 3}

    def test_order_independent(self):
        assert _profile((5, 1, 9, 3)) == _profile((9, 5, 3, 1))

    def test_every_sample_is_kept(self):
        """Percentiles are exact however many spans a run records."""
        values = [(i * 7919) % 1024 for i in range(1024)]
        ranked = sorted(values)
        row = _profile(values)
        assert row["count"] == 1024
        assert row["total"] == sum(values)
        assert row["max"] == 1023
        for p in (50, 95, 99):
            assert row[f"p{p}"] == ranked[round(p / 100 * 1023)]


class TestJsonExport:
    def test_document_shape(self):
        telemetry = Telemetry()
        with telemetry.span("Execute", query="/a/b"):
            pass
        doc = json.loads(telemetry.to_json(indent=2))
        assert sorted(doc) == ["diagnostics", "operators", "stats",
                               "trace"]
        assert sum(doc["stats"].values()) == 0  # no engine run here
        assert list(doc["stats"]) == sorted(telemetry.stats.FIELDS)
        assert doc["operators"]["Execute"]["count"] == 1
        assert doc["trace"]["spans"][0]["name"] == "Execute"
        assert doc["trace"]["spans"][0]["attributes"]["query"] == "/a/b"

    def test_operators_section_matches_profile(self):
        telemetry = Telemetry()
        with telemetry.span("Parent"):
            pass
        doc = json.loads(telemetry.to_json())
        assert doc["operators"]["Parent"]["count"] == 1


class TestDeterministicExport:
    def test_json_keys_sorted_at_every_level(self):
        telemetry = Telemetry()
        telemetry.stats.decompressions = 2
        with telemetry.span("B", zeta=1, alpha=2):
            pass
        with telemetry.span("A"):
            pass
        text = telemetry.to_json()
        doc = json.loads(text)
        assert list(doc) == sorted(doc)
        assert list(doc["stats"]) == sorted(doc["stats"])
        assert list(doc["trace"]["spans"][0]["attributes"]) == \
            ["alpha", "zeta"]
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
            telemetry.stats.decompressions = 5
            telemetry.tracer.record("Select", 0, 100, rows=3, batches=1)
            return telemetry.to_json(indent=2)

        assert run() == run()

    def test_default_str_keeps_foreign_values_serializable(self):
        telemetry = Telemetry()
        with telemetry.span("Op", where=object()):
            pass
        json.loads(telemetry.to_json())  # must not raise
