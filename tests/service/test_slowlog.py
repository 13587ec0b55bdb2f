"""Slow-query log: threshold gating, fingerprints, exemplars."""

import json

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.query.parser import parse_query
from repro.service.session import Database
from repro.service.slowlog import (
    SLOWLOG_SUFFIX,
    SlowQueryLog,
    default_slowlog_path,
    plan_fingerprint,
    query_fingerprint,
    snapshot_cache_counters,
)

DOC = """
<library>
  <book isbn="1"><title>Dune</title><price>9.99</price></book>
  <book isbn="2"><title>Foundation</title><price>7.5</price></book>
</library>
"""


class TestFingerprints:
    def test_query_fingerprint_ignores_whitespace(self):
        a = query_fingerprint("/library/book/title")
        b = query_fingerprint("  /library/book/title  ")
        assert a == b
        assert len(a) == 12

    def test_query_fingerprint_none(self):
        assert query_fingerprint(None) is None

    def test_plan_fingerprint_groups_spellings(self):
        a = plan_fingerprint(parse_query("/library/book"))
        b = plan_fingerprint(parse_query("/library/book"))
        assert a == b and len(a) == 12

    def test_plan_fingerprint_survives_garbage(self):
        assert plan_fingerprint(object()) is None


class TestValidation:
    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError, match="threshold"):
            SlowQueryLog(threshold_ms=-1.0)

    def test_rejects_zero_exemplar_rate(self):
        with pytest.raises(ValueError, match="exemplar rate"):
            SlowQueryLog(exemplar_rate=0)

    def test_rejects_zero_keep(self):
        with pytest.raises(ValueError, match="keep"):
            SlowQueryLog(keep=0)


class TestThresholdGating:
    def test_under_threshold_records_nothing(self):
        log = SlowQueryLog(threshold_ms=1000.0)
        record = log.maybe_record(
            query="/library/book", ast=None, query_class="path",
            wall_ns=1_000_000)  # 1 ms
        assert record is None
        assert log.recent() == []

    def test_over_threshold_records(self):
        log = SlowQueryLog(threshold_ms=1.0)
        record = log.maybe_record(
            query="/library/book", ast=parse_query("/library/book"),
            query_class="path", wall_ns=5_000_000)  # 5 ms
        assert record is not None
        assert record["class"] == "path"
        assert record["wall_ms"] == pytest.approx(5.0)
        assert record["query_fingerprint"]
        assert record["plan_fingerprint"]
        assert record["error"] is False
        assert log.recent() == [record]

    def test_ring_is_bounded(self):
        log = SlowQueryLog(threshold_ms=0.0, keep=3)
        for i in range(10):
            log.maybe_record(query=f"q{i}", ast=None,
                             query_class="other", wall_ns=1)
        recent = log.recent()
        assert len(recent) == 3
        assert [r["query"] for r in recent] == ["q7", "q8", "q9"]

    def test_recent_n(self):
        log = SlowQueryLog(threshold_ms=0.0)
        for i in range(5):
            log.maybe_record(query=f"q{i}", ast=None,
                             query_class="other", wall_ns=1)
        assert [r["query"] for r in log.recent(2)] == ["q3", "q4"]


class TestSampling:
    def test_one_in_n(self):
        log = SlowQueryLog(exemplar_rate=3)
        decisions = [log.maybe_sample() is not None
                     for _ in range(9)]
        assert decisions == [True, False, False] * 3

    def test_rate_one_samples_every_run(self):
        log = SlowQueryLog(exemplar_rate=1)
        assert all(log.maybe_sample() is not None for _ in range(4))

    def test_sampled_telemetry_is_enabled(self):
        # a sampled telemetry is a tracing one: there is no other kind
        telemetry = SlowQueryLog(exemplar_rate=1).maybe_sample()
        with telemetry.span("Execute"):
            pass
        assert telemetry.operator_profile()["Execute"]["count"] == 1


class TestJournalPersistence:
    def test_records_append_to_jsonl(self, tmp_path):
        path = tmp_path / "lib.slowlog.jsonl"
        with SlowQueryLog(path, threshold_ms=0.0) as log:
            log.maybe_record(query="/library/book", ast=None,
                             query_class="path", wall_ns=123)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["query"] == "/library/book"
        assert record["wall_ns"] == 123

    def test_default_path_rides_along_the_repository(self):
        path = default_slowlog_path("/x/lib.xqc")
        assert path.name == "lib.xqc" + SLOWLOG_SUFFIX


class TestMetricsWiring:
    def test_gauges_and_counters(self):
        metrics = MetricsRegistry()
        log = SlowQueryLog(threshold_ms=7.0, exemplar_rate=2,
                           metrics=metrics)
        assert metrics.gauges()["slowlog.threshold_ms"] == 7.0
        log.maybe_sample()
        log.maybe_record(query="q", ast=None, query_class="other",
                         wall_ns=10_000_000)
        counters = metrics.counters()
        assert counters["slowlog.sampled"] == 1
        assert counters["slowlog.records"] == 1


class TestSessionIntegration:
    def test_slow_run_is_recorded_with_exemplar(self):
        log = SlowQueryLog(threshold_ms=0.0, exemplar_rate=1)
        database = Database.from_xml(DOC, slow_log=log)
        session = database.session()
        result = session.execute("/library/book/title")
        assert len(result.items) == 2
        [record] = log.recent()
        assert record["class"] == "path"
        assert record["wall_ns"] > 0
        assert record["exemplar"] is not None
        assert record["exemplar"]["operators"]
        # the exemplar quotes the run's own books (the record is cut
        # when execute() returns, before the lazy final Decompress)
        assert record["exemplar"]["stats"] == {
            **result.stats.as_dict(), "decompressions": 0}
        assert record["cache_deltas"] is not None
        assert record["cache_deltas"]["plan.miss"] == 1

    def test_fast_runs_stay_unrecorded(self):
        log = SlowQueryLog(threshold_ms=60_000.0)
        database = Database.from_xml(DOC, slow_log=log)
        database.session().execute("/library/book/title")
        assert log.recent() == []

    def test_failed_run_is_flagged(self):
        log = SlowQueryLog(threshold_ms=0.0, exemplar_rate=1)
        database = Database.from_xml(DOC, slow_log=log)
        session = database.session()
        with pytest.raises(Exception):
            session.execute("for $x in")  # malformed
        # parse failures never reach _run; a runtime failure would be
        # flagged — assert the log did not record the parse error.
        assert all(r["error"] is False for r in log.recent())

    def test_cache_snapshot_helper(self):
        metrics = MetricsRegistry()
        metrics.add("cache.plan.hit", 2)
        snapshot = snapshot_cache_counters(metrics)
        assert snapshot["cache.plan.hit"] == 2
        assert snapshot["cache.block.miss"] == 0
