"""EXPLAIN ANALYZE: rendered actuals must be the run's real stats.

The acceptance bar for the observability layer: the counters printed in
the report are *exactly* the ``QueryResult.stats`` totals of the same
run (the telemetry holds the result's stats object), and a cold engine
(telemetry disabled) pays next to nothing for the instrumentation.
"""

import json
import re
import time

import pytest

from repro.query.analyze import explain_analyze
from repro.query.engine import QueryEngine
from repro.storage.loader import load_document

DOC = """
<site>
  <people>
    <person id="person0"><name>Alice</name><age>31</age></person>
    <person id="person1"><name>Bob</name><age>27</age></person>
    <person id="person2"><name>Carol</name><age>45</age></person>
  </people>
  <auctions>
    <auction id="a0"><buyer person="person1"/><price>10</price></auction>
    <auction id="a1"><buyer person="person0"/><price>55</price></auction>
    <auction id="a2"><buyer person="person1"/><price>7</price></auction>
  </auctions>
</site>
"""

RANGE_QUERY = ("for $p in /site/people/person "
               "where $p/age/text() < 30 return $p/name/text()")

JOIN_QUERY = ("for $p in /site/people/person, "
              "$a in /site/auctions/auction "
              "where $a/buyer/@person = $p/@id "
              "return $p/name/text()")


@pytest.fixture(scope="module")
def engine():
    return QueryEngine(load_document(DOC))


def rendered_counters(text: str) -> dict[str, int]:
    """Parse the ``-- counters --`` section back into a dict."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.startswith("-- counters"))
    out = {}
    for line in lines[start + 1:]:
        match = re.match(r"(\w+)\s+(\d+)$", line)
        if not match:
            break
        out[match.group(1)] = int(match.group(2))
    return out


class TestRangePlan:
    def test_report_shape(self, engine):
        report = explain_analyze(RANGE_QUERY, engine)
        assert report.text.startswith("EXPLAIN ANALYZE")
        assert "[actual container_accesses=" in report.text
        assert "-- operators --" in report.text
        assert report.result.items == ["Bob"]

    def test_counters_equal_result_stats(self, engine):
        report = explain_analyze(RANGE_QUERY, engine)
        stats = report.result.stats
        parsed = rendered_counters(report.text)
        assert parsed == stats.as_dict()
        assert parsed["container_accesses"] >= 1

    def test_stats_and_telemetry_share_one_registry(self, engine):
        report = explain_analyze(RANGE_QUERY, engine)
        # one set of books: the telemetry holds the result's stats
        # object itself, not a registry view of it.
        assert report.telemetry.stats is report.result.stats
        assert not hasattr(report.result.stats, "registry")

    def test_operator_timings_present(self, engine):
        report = explain_analyze(RANGE_QUERY, engine)
        profile = report.telemetry.operator_profile()
        assert profile["Execute"]["count"] == 1
        assert profile["ContAccess"]["count"] >= 1
        assert profile["Execute"]["total"] >= 0


class TestSubstringPlan:
    QUERY = ("for $p in /site/people/person "
             'where contains($p/name/text(), "aro") return $p/@id')

    def test_probe_annotated_and_counted(self, engine):
        report = explain_analyze(self.QUERY, engine)
        assert report.result.items == ["person2"]
        stats = report.result.stats
        assert stats.container_accesses == 1
        line = next(line for line in report.text.splitlines()
                    if "ContSubstring 'aro'" in line)
        assert "[actual container_accesses=1," in line
        assert report.telemetry.operator_profile()[
            "ContSubstring"]["count"] == 1
        assert rendered_counters(report.text) == stats.as_dict()


class TestHashJoin:
    """The equality join's plan line: one MergeJoin, two scans."""

    def test_join_annotated_and_counted(self, engine):
        report = explain_analyze(JOIN_QUERY, engine)
        stats = report.result.stats
        assert stats.container_scans == 2
        line = next(line for line in report.text.splitlines()
                    if "MergeJoin" in line)
        assert "[actual container_scans=2," in line
        assert sorted(report.result.items) == ["Alice", "Bob", "Bob"]

    def test_projection_line_carries_its_build_span(self, engine):
        """``$p/name/text()`` is a projection: its plan line shows the
        run's ``Projection`` lookup spans, and no counter (it reads
        owner groups bound at prepare, when nothing is built)."""
        report = explain_analyze(JOIN_QUERY, engine)
        line = next(line for line in report.text.splitlines()
                    if "Projection $p/name/text()" in line)
        assert re.search(r"\[actual [1-9]\d* ns\]$", line), line

    def test_counters_equal_result_stats(self, engine):
        report = explain_analyze(JOIN_QUERY, engine)
        assert rendered_counters(report.text) == \
            report.result.stats.as_dict()

    def test_join_build_span_recorded(self, engine):
        profile = explain_analyze(JOIN_QUERY, engine).telemetry \
            .operator_profile()
        assert profile["MergeJoin.build"]["count"] == 1
        assert profile["MergeJoin"]["count"] == 1
        assert "HashJoin.build" not in profile


def rendered_operators(text: str) -> dict[str, tuple[int, ...]]:
    """Parse the ``-- operators --`` table: name -> (calls, total_ns,
    p50_ns, p95_ns, max_ns)."""
    lines = text.splitlines()
    start = lines.index("-- operators --") + 2  # past the header row
    out = {}
    for line in lines[start:]:
        if not line.strip():
            break
        name, *numbers = line.split()
        out[name] = tuple(int(number) for number in numbers)
    return out


class TestOperatorPercentiles:
    def test_rows_quote_nearest_rank_of_the_runs_spans(self, engine):
        report = explain_analyze(JOIN_QUERY, engine)
        observed: dict[str, list[int]] = {}
        for root in report.telemetry.tracer.roots:
            for span in root.walk():
                observed.setdefault(span.name, []).append(
                    span.duration_ns)
        rows = rendered_operators(report.text)
        assert max(len(values) for values in observed.values()) > 1
        assert set(rows) == set(observed)
        for name, values in observed.items():
            ranked = sorted(values)

            def rank(p):
                return ranked[round(p / 100 * (len(ranked) - 1))]

            assert rows[name] == (len(ranked), sum(ranked), rank(50),
                                  rank(95), ranked[-1])


class TestJsonExport:
    def test_report_json_matches_stats(self, engine):
        report = explain_analyze(RANGE_QUERY, engine)
        doc = json.loads(report.to_json())
        assert doc["stats"] == report.result.stats.as_dict()
        assert doc["trace"]["spans"], "trace forest must be recorded"

    def test_engine_explain_analyze_returns_text(self, engine):
        text = engine.explain_analyze(RANGE_QUERY)
        assert isinstance(text, str)
        assert text.startswith("EXPLAIN ANALYZE")


class TestDisabledOverhead:
    def test_disabled_run_records_no_telemetry(self, engine):
        result = engine.execute(RANGE_QUERY)
        assert result.telemetry is None
        # The stats counters themselves stay available (always-on).
        assert result.stats.container_accesses >= 1

    def test_disabled_overhead_under_bound(self, engine):
        """Telemetry off must not cost more than telemetry on.

        The acceptance bar is <5% regression vs the uninstrumented
        seed; the seed is gone, but the enabled path does strictly
        more work than the disabled path, so disabled-min beyond
         25% above enabled-min would mean the disabled path itself
        acquired real overhead.  Generous margin absorbs CI noise.
        """
        from repro.obs.telemetry import Telemetry
        from repro.query.options import ExecutionOptions

        def best_of(runs: int, make_telemetry) -> float:
            best = float("inf")
            for _ in range(runs):
                telemetry = make_telemetry()
                start = time.perf_counter()
                engine.execute(
                    RANGE_QUERY,
                    ExecutionOptions(telemetry=telemetry)).items
                best = min(best, time.perf_counter() - start)
            return best

        disabled = best_of(30, lambda: None)
        enabled = best_of(30, lambda: Telemetry())
        assert disabled <= enabled * 1.25 + 1e-4
