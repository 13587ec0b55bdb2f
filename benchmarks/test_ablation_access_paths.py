"""Ablation A1 — sorted-container interval search vs full scans.

DESIGN.md calls out the record order inside containers as a design
choice: lexicographic order enables binary-searched ``ContAccess``
(§2.2 "Records are not placed in the document order, but in a
lexicographic order, to enable fast binary search").  This ablation
measures a selective value predicate through both access paths, and the
engine-level effect of the RangePlan optimization.
"""

from __future__ import annotations

import time

import pytest

from repro.bench.reporting import format_table, record_result
from repro.query.physical import ContAccess, ContScan

_NAME_PATH = "/site/people/person/name/#text"


@pytest.mark.benchmark(group="ablation-access")
def test_interval_search_vs_scan(benchmark, xquec_default):
    repository = xquec_default.repository
    container = repository.container(_NAME_PATH)
    low, high = "J", "K"  # names starting with J

    def interval():
        return list(container.interval_search(low, high,
                                              high_inclusive=False))

    def scan_filter():
        codec = container.codec
        return [(p, cv) for p, cv in container.scan()
                if low <= codec.decode(cv) < high]

    expected = {p for p, _ in scan_filter()}
    got = {p for p, _ in interval()}
    assert got == expected

    start = time.perf_counter()
    for _ in range(5):
        interval()
    interval_s = (time.perf_counter() - start) / 5
    start = time.perf_counter()
    for _ in range(5):
        scan_filter()
    scan_s = (time.perf_counter() - start) / 5

    benchmark.pedantic(interval, rounds=5, iterations=1)

    table = format_table(
        "Ablation A1 — ContAccess (binary search) vs decompressing scan",
        ["access path", "seconds", "records touched"],
        [("ContAccess interval", interval_s, len(got)),
         ("ContScan + decode filter", scan_s, len(container))],
        note="The sorted container turns a selective predicate into a "
             "binary search over compressed bytes; the scan decodes "
             "every record.")
    record_result("ablation_access_paths", table)

    assert interval_s < scan_s, \
        "interval search must beat the decompressing scan"


@pytest.mark.benchmark(group="ablation-access")
def test_physical_operators_agree(benchmark, xquec_default):
    """ContAccess output == filtered ContScan output (operator level)."""
    repository = xquec_default.repository

    def run():
        access = ContAccess(repository, _NAME_PATH, "id", "value",
                            low="B", high="C", high_inclusive=False).run()
        scan = ContScan(repository, _NAME_PATH, "id", "value").run()
        ((container, slots),) = scan["value"].segments
        keep = ["B" <= container.value_at(slot) < "C"
                for slot in slots.tolist()]
        return access["id"], scan["id"][keep]

    access_ids, scan_ids = benchmark.pedantic(run, rounds=1,
                                              iterations=1)
    assert set(access_ids.tolist()) == set(scan_ids.tolist())
