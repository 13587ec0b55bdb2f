"""Ablation A5 — text predicates from the containers, on Q14's query.

Q14 ("items whose description mentions gold") is the paper's example
of a query whose cost is dominated by scanning text values.  Written
the way the planner can classify it, ``contains`` is decided on the
containers' positional q-gram index and only the results are decoded;
wrapped in ``string()`` the same predicate is opaque, every item is
bound and its description decoded.  One engine, no switch: the query
text decides.
"""

from __future__ import annotations

import time

import pytest

from repro.bench.reporting import format_table, record_result
from repro.query.engine import QueryEngine

_QUERY = ("for $i in /site//item "
          'where contains({}, "gold") return $i/name/text()')
_CLASSIFIED = _QUERY.format("$i/description/text/text()")
_WRAPPED = _QUERY.format("string($i/description/text/text())")


def _seconds(engine: QueryEngine, query: str) -> float:
    start = time.perf_counter()
    for _ in range(3):
        engine.execute(query).to_xml()
    return (time.perf_counter() - start) / 3


@pytest.mark.benchmark(group="ablation-fulltext")
def test_candidates_vs_scan_contains(benchmark, xquec_default):
    engine = QueryEngine(xquec_default.repository)
    scanned = engine.execute(_WRAPPED)
    expected = scanned.items
    assert expected, "the query should match something"
    probed = engine.execute(_CLASSIFIED)   # builds the indexes
    assert probed.items == expected
    assert scanned.stats.container_accesses == 0

    scan_s = _seconds(engine, _WRAPPED)
    probe_s = _seconds(engine, _CLASSIFIED)
    benchmark.pedantic(lambda: engine.execute(_CLASSIFIED).to_xml(),
                       rounds=3, iterations=1)

    containers = [c for c in xquec_default.repository.containers()
                  if c._substring_index is not None]
    table = format_table(
        "Ablation A5 — contains: positional q-grams vs scan",
        ["strategy", "seconds", "decompressions", "probes"],
        [("ContSubstring exact, positional q-grams", probe_s,
          probed.stats.decompressions, probed.stats.container_accesses),
         ("bind every item, decompress and scan", scan_s,
          scanned.stats.decompressions, 0)],
        note=f"{len(containers)} containers indexed on first use, "
             f"{sum(c.substring_index().nbytes for c in containers)}"
             " bytes of (slot, offset) postings in memory (never "
             "stored); the index decides the predicate, so only the "
             "results' names are decoded.")
    record_result("ablation_fulltext", table)

    assert probe_s < scan_s
    # Nothing is decoded for the predicate; the results once, on the
    # way out.
    assert probed.stats.decompressions == len(expected)
    assert probed.stats.decompressions < scanned.stats.decompressions / 2
