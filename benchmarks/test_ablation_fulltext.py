"""Ablation A5 — text predicates from the containers, on Q14's query.

Q14 ("items whose description mentions gold") is the paper's example
of a query whose cost is dominated by scanning text values.  Written
the way the planner can classify it, ``contains`` starts from the
containers' q-gram candidates and decodes only them; wrapped in
``string()`` the same predicate is opaque, every item is bound and its
description decoded.  One engine, no switch: the query text decides.
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
        "Ablation A5 — contains: q-gram candidates vs scan",
        ["strategy", "seconds", "decompressions", "probes"],
        [("ContSubstring candidates, re-checked", probe_s,
          probed.stats.decompressions, probed.stats.container_accesses),
         ("bind every item, decompress and scan", scan_s,
          scanned.stats.decompressions, 0)],
        note=f"{len(containers)} containers indexed on first use, "
             f"{sum(a.nbytes for c in containers for a in c._substring_index)}"
             " bytes of q-gram postings in memory (never stored); the "
             "candidates are a superset, so each is decoded once for "
             "the re-check — and nothing else is.")
    record_result("ablation_fulltext", table)

    assert probe_s < scan_s
    # Only candidates are decoded for the predicate, results once more
    # on the way out.
    assert probed.stats.decompressions <= 3 * len(expected)
    assert probed.stats.decompressions < scanned.stats.decompressions / 2
