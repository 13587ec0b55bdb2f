"""Tests for serving SLOs: query classes, latency histograms, report."""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.query.parser import parse_query
from repro.service.session import Database, Session
from repro.service.slo import (
    LATENCY_PREFIX,
    LatencyObjective,
    classify_query,
    observe_latency,
    render_slo_report,
    slo_report,
)
from repro.storage.loader import load_document

DOC = """
<library>
  <book isbn="1"><title>Dune</title><price>9.99</price></book>
  <book isbn="2"><title>Foundation</title><price>7.5</price></book>
  <book isbn="3"><title>Hyperion</title><price>12.0</price></book>
</library>
"""


@pytest.fixture(scope="module")
def repository():
    return load_document(DOC)


@pytest.fixture
def session(repository):
    return Session(repository)


def classify(text: str) -> str:
    return classify_query(parse_query(text))


class TestClassifyQuery:
    def test_point_equality_only_where(self):
        assert classify(
            'for $b in /library/book where $b/title = "Dune" '
            "return $b") == "point"

    def test_scan_range_predicate(self):
        assert classify(
            "for $b in /library/book where $b/price > 8.0 "
            "return $b") == "scan"

    def test_join_two_for_clauses(self):
        assert classify(
            "for $a in /library/book for $b in /library/book "
            "where $a/price = $b/price return $a") == "join"

    def test_path_bare(self):
        assert classify("/library/book/title") == "path"

    def test_path_flwor_without_where(self):
        assert classify(
            "for $b in /library/book return $b/title") == "path"

    def test_scan_path_with_predicate(self):
        assert classify("/library/book[price > 8]") == "scan"

    def test_construct(self):
        assert classify("<shelf>{ /library/book }</shelf>") \
            == "construct"


class TestObserveLatency:
    def test_files_into_class_histogram(self):
        metrics = MetricsRegistry()
        observe_latency(metrics, "scan", 1_000_000)
        observe_latency(metrics, "scan", 3_000_000)
        hist = metrics.histograms()[LATENCY_PREFIX + "scan"]
        assert hist["count"] == 2
        assert metrics.counters()["slo.served.scan"] == 2


class TestLatencyObjective:
    def test_parse(self):
        objective = LatencyObjective.parse("point:p95:5")
        assert objective == LatencyObjective("point", 95.0, 5.0)

    def test_parse_rejects_bad_specs(self):
        for spec in ("point:95:5", "point:p95", "nope", "a:b:c:d"):
            with pytest.raises(ValueError):
                LatencyObjective.parse(spec)


class TestSloReport:
    def test_session_populates_class_histograms(self, session):
        session.execute("/library/book/title")
        session.execute(
            "for $b in /library/book where $b/price > 8.0 "
            "return $b/title")
        report = session.slo_report()
        assert report["classes"]["path"]["count"] == 1
        assert report["classes"]["scan"]["count"] == 1
        for row in report["classes"].values():
            assert row["p50_ms"] is not None
            assert row["p50_ms"] <= row["p95_ms"] <= row["p99_ms"]
            assert row["max_ms"] > 0

    def test_execute_many_records_every_worker(self, session):
        queries = ["/library/book/title"] * 8
        session.execute_many(queries, max_workers=4)
        report = session.slo_report()
        assert report["classes"]["path"]["count"] == 8

    def test_failed_runs_still_observed(self, session):
        with pytest.raises(Exception):
            session.execute("/library/book[price > ")  # parse error
        # parse failures never reach _run; a plan that fails during
        # evaluation still lands in the histogram
        before = session.slo_report()["classes"]
        session.execute("/library/book/title")
        after = session.slo_report()["classes"]
        assert after["path"]["count"] == \
            before.get("path", {}).get("count", 0) + 1

    def test_cache_gauges(self, session):
        session.execute("/library/book/title")
        session.execute("/library/book/title")
        report = session.slo_report()
        plan = report["caches"]["plan"]
        assert plan["hit"] >= 1
        assert plan["miss"] >= 1
        assert 0.0 < plan["hit_rate"] < 1.0

    def test_objective_checks(self, session):
        session.execute("/library/book/title")
        generous = LatencyObjective("path", 95.0, 60_000.0)
        impossible = LatencyObjective("path", 95.0, 0.000001)
        absent = LatencyObjective("join", 95.0, 100.0)
        report = session.slo_report(
            [generous, impossible, absent])
        checks = {(c["class"], c["target_ms"]): c
                  for c in report["objectives"]}
        assert checks[("path", 60_000.0)]["ok"] is True
        assert checks[("path", 0.000001)]["ok"] is False
        # an objective over an unobserved class is unmet-by-absence
        assert checks[("join", 100.0)]["ok"] is False
        assert checks[("join", 100.0)]["actual_ms"] is None

    def test_empty_registry_report(self):
        report = slo_report(MetricsRegistry())
        assert report["classes"] == {}
        assert report["caches"]["plan"]["hit_rate"] is None


class TestRenderSloReport:
    def test_renders_tables_and_verdicts(self, session):
        session.execute("/library/book/title")
        text = render_slo_report(session.slo_report(
            [LatencyObjective("path", 95.0, 60_000.0)]))
        assert "-- serving latency by query class --" in text
        assert "path" in text
        assert "-- cache hit rates --" in text
        assert "[OK]" in text

    def test_renders_empty(self):
        text = render_slo_report(slo_report(MetricsRegistry()))
        assert "no latencies recorded" in text


class TestLatencyObjectiveValidation:
    def test_rejects_unknown_class(self):
        with pytest.raises(ValueError, match="unknown query class"):
            LatencyObjective.parse("lookup:p95:5")

    def test_error_lists_valid_classes(self):
        with pytest.raises(ValueError, match="point.*scan.*join"):
            LatencyObjective.parse("lookup:p95:5")

    def test_rejects_p0_and_p101(self):
        for bad in ("point:p0:5", "point:p101:5", "point:p-3:5"):
            with pytest.raises(ValueError, match="percentile"):
                LatencyObjective.parse(bad)

    def test_accepts_p100_and_fractions(self):
        assert LatencyObjective.parse("point:p100:5").percentile \
            == 100.0
        assert LatencyObjective.parse("point:p99.9:5").percentile \
            == 99.9

    def test_rejects_nonpositive_ms(self):
        for bad in ("point:p95:0", "point:p95:-2"):
            with pytest.raises(ValueError, match="positive"):
                LatencyObjective.parse(bad)

    def test_rejects_unparsable_parts(self):
        with pytest.raises(ValueError, match="percentile"):
            LatencyObjective.parse("point:pxx:5")
        with pytest.raises(ValueError, match="millisecond"):
            LatencyObjective.parse("point:p95:fast")

    def test_errors_name_the_spec(self):
        with pytest.raises(ValueError, match="lookup:p95:5"):
            LatencyObjective.parse("lookup:p95:5")


class TestRollingReport:
    def test_report_carries_rolling_windows_and_qps(self, session):
        session.execute("/library/book/title")
        session.execute(
            'for $b in /library/book where $b/title = "Dune" '
            "return $b")
        report = session.slo_report()
        assert "rolling" not in report  # one table, not a pair
        assert set(report["classes"]) == {"path", "point"}
        row = report["classes"]["path"]
        assert row["count"] == 1
        assert row["qps"] > 0
        assert row["p95_ms"] is not None
        assert report["qps"] == sum(
            row["qps"] for row in report["classes"].values())

    def test_render_includes_rolling_table(self, session):
        session.execute("/library/book/title")
        text = render_slo_report(session.slo_report())
        assert "rolling window" in text
        assert "QPS" in text
        assert text.count("p95_ms") == 1  # one latency table

    def test_empty_registry_has_no_rolling_rows(self):
        report = slo_report(MetricsRegistry())
        assert report["classes"] == {}
        assert report["qps"] == 0.0


POINT = 'for $b in /library/book where $b/title = "Dune" return $b'
SCAN = "for $b in /library/book where $b/price > 8.0 return $b"
PATH = "/library/book/title"


class TestConcurrentWindows:
    """Four workers hammering one session must leave the per-class
    latency histograms (a) filed under the *correct* class and (b)
    with **no lost increments**: histogram counts and the
    ``slo.served.*`` counters agree with the queries served."""

    def test_no_lost_increments_across_four_workers(self):
        database = Database.from_xml(DOC)
        session = database.session()
        rounds = 6
        batch = [POINT, SCAN, PATH, POINT, SCAN, PATH, PATH, POINT]
        for _ in range(rounds):
            results = session.execute_many(batch, max_workers=4)
            assert len(results) == len(batch)

        expected = {
            "point": rounds * batch.count(POINT),
            "scan": rounds * batch.count(SCAN),
            "path": rounds * batch.count(PATH),
        }
        histograms = database.metrics.histograms()
        counters = database.metrics.counters()
        for query_class, count in expected.items():
            name = LATENCY_PREFIX + query_class
            assert histograms[name]["count"] == count, query_class
            assert counters[f"slo.served.{query_class}"] == count
        # every latency is filed once: nothing but the class
        # histograms, nothing misfiled into a class nobody ran
        assert set(histograms) == {LATENCY_PREFIX + c for c in expected}
        total = sum(expected.values())
        assert counters["session.executions"] == total

    def test_windows_feed_the_rolling_report(self):
        database = Database.from_xml(DOC)
        session = database.session()
        session.execute_many([POINT, SCAN, PATH, PATH],
                             max_workers=4)
        report = session.slo_report()
        assert set(report["classes"]) == {"point", "scan", "path"}
        assert report["classes"]["path"]["count"] == 2
        assert report["qps"] > 0
        for row in report["classes"].values():
            assert row["p95_ms"] is not None
            assert row["p95_ms"] >= 0

    def test_window_percentiles_bound_the_lifetime_max(self):
        database = Database.from_xml(DOC)
        session = database.session()
        session.execute_many([PATH] * 8, max_workers=4)
        hist = database.metrics.histograms()[LATENCY_PREFIX + "path"]
        assert hist["count"] == 8
        assert hist["p50"] <= hist["p95"] <= hist["p99"] <= hist["max"]
