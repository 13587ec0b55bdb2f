"""Figure 7 + §5 text — query execution times, XQueC vs Galax.

The paper runs a subset of XMark queries on the 11.3 MB XMark11
document and reports that:

* XQueC is comparable to optimized Galax overall — "no performance
  penalty due to compression" (XQueC times *include* decompressing the
  results);
* XQueC is a little *worse* on Q2, Q3 and Q16 (simple unique IDs force
  parent-child joins);
* the value-join queries are where XQueC wins by orders of magnitude:
  Q8 took 2.142 s vs Galax's 126.33 s, and Galax could not finish Q9
  on the test machine at all.

Every query's results are asserted identical across engines before
timing — a QET comparison between engines returning different answers
is meaningless.
"""

from __future__ import annotations

import time

import pytest

from repro.bench.reporting import format_table, record_result
from repro.obs.telemetry import Telemetry
from repro.query.options import ExecutionOptions
from repro.xmark.queries import (
    FIGURE7_QUERIES,
    JOIN_QUERIES,
    query_text,
)


@pytest.mark.benchmark(group="fig7-xquec")
@pytest.mark.parametrize("query_id", FIGURE7_QUERIES)
def test_xquec_qet(benchmark, query_id, xquec_system, galax_engine,
                   telemetry_sink):
    expected = galax_engine.execute_to_xml(query_text(query_id))
    result = benchmark.pedantic(
        lambda: xquec_system.execute(
            query_text(query_id)).to_xml(),
        rounds=3, iterations=1)
    assert result == expected
    # One instrumented run (outside the timed rounds) attaches the
    # operator counts behind this figure to the result files.
    telemetry = Telemetry()
    xquec_system.execute(
        query_text(query_id),
        ExecutionOptions(telemetry=telemetry)).to_xml()
    telemetry_sink(telemetry, experiment=f"fig7_{query_id.lower()}")


@pytest.mark.benchmark(group="fig7-galax")
@pytest.mark.parametrize("query_id", FIGURE7_QUERIES)
def test_galax_qet(benchmark, query_id, galax_engine):
    benchmark.pedantic(
        lambda: galax_engine.execute_to_xml(query_text(query_id)),
        rounds=3, iterations=1)


@pytest.mark.benchmark(group="fig7-summary")
def test_fig7_summary_table(benchmark, xquec_system, galax_engine):
    def run():
        rows = []
        for query_id in FIGURE7_QUERIES + JOIN_QUERIES:
            query = query_text(query_id)
            start = time.perf_counter()
            ours = xquec_system.execute(query).to_xml()
            xquec_s = time.perf_counter() - start
            start = time.perf_counter()
            theirs = galax_engine.execute_to_xml(query)
            galax_s = time.perf_counter() - start
            assert ours == theirs, f"{query_id} results diverge"
            rows.append((query_id, xquec_s, galax_s,
                         galax_s / max(xquec_s, 1e-9)))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = format_table(
        "Figure 7 — QET (seconds), XQueC vs Galax stand-in",
        ["query", "XQueC s", "Galax s", "Galax/XQueC"],
        rows,
        note="Paper shape: comparable on most queries, XQueC a bit "
             "worse on Q2/Q3/Q16 (parent-child joins over simple "
             "IDs), orders of magnitude better on the join queries "
             "Q8/Q9 (126 s / unmeasurable for Galax in the paper).")
    record_result("fig7_qet", table)

    by_id = {row[0]: row for row in rows}
    # The join queries must blow Galax up, as in the paper's §5 text.
    assert by_id["Q8"][3] > 5.0
    assert by_id["Q9"][3] > 50.0
    # And the simple-ID weakness: Q2/Q3/Q16 at most comparable.
    for weak in ("Q2", "Q3", "Q16"):
        assert by_id[weak][3] <= 2.0, f"{weak} should not favour XQueC"


@pytest.mark.benchmark(group="fig7-joins")
@pytest.mark.parametrize("query_id", JOIN_QUERIES)
def test_q8_q9_joins(benchmark, query_id, xquec_system):
    """The §5 headline: join queries at interactive speed on XQueC."""
    result = benchmark.pedantic(
        lambda: xquec_system.execute(query_text(query_id)),
        rounds=3, iterations=1)
    assert len(result) > 0
