"""Ablation A2 — compressed-domain predicates vs decompress-then-compare.

XQueC's headline mechanism (§2.1/§4): with an order-preserving codec,
equality *and* inequality selections compare compressed bytes — one
constant encode instead of one decode per record.  This ablation pits
the two strategies against each other on the same container and also
verifies the engine actually stays in the compressed domain (via the
EvaluationStats counters).
"""

from __future__ import annotations

import time

import pytest

from repro.bench.reporting import format_table, record_result

_NAME_PATH = "/site/people/person/name/#text"


@pytest.mark.benchmark(group="ablation-compressed")
def test_compressed_vs_decompressed_selection(benchmark,
                                              xquec_default):
    container = xquec_default.repository.container(_NAME_PATH)
    codec = container.codec
    constant = "John Smith"
    encoded = codec.encode(constant)
    records = [cv for _, cv in container.scan()]

    def compressed_domain():
        return sum(1 for cv in records if cv < encoded)

    def decompress_first():
        return sum(1 for cv in records if codec.decode(cv) < constant)

    assert compressed_domain() == decompress_first()

    start = time.perf_counter()
    for _ in range(5):
        compressed_domain()
    compressed_s = (time.perf_counter() - start) / 5
    start = time.perf_counter()
    for _ in range(5):
        decompress_first()
    decompressed_s = (time.perf_counter() - start) / 5

    benchmark.pedantic(compressed_domain, rounds=5, iterations=1)

    table = format_table(
        "Ablation A2 — inequality selection strategies "
        f"({len(records)} records)",
        ["strategy", "seconds", "speedup"],
        [("compare compressed (ALM, order-preserving)", compressed_s,
          1.0),
         ("decompress then compare", decompressed_s,
          decompressed_s / max(compressed_s, 1e-9))],
        note="The order-preserving codec answers `<` on compressed "
             "bytes; the alternative decodes every record first.")
    record_result("ablation_compressed_predicates", table)

    assert compressed_s < decompressed_s


@pytest.mark.benchmark(group="ablation-compressed")
def test_engine_stays_compressed_on_inequality(benchmark,
                                               xquec_default):
    """EvaluationStats must show compressed comparisons dominating."""
    query = ('for $p in /site/people/person '
             'where $p/name/text() < "C" return $p/@id')

    result = benchmark.pedantic(
        lambda: xquec_default.execute(query), rounds=3, iterations=1)
    stats = result.stats
    # The selection must not decompress each candidate: decompressions
    # are bounded by the result size (final serialization only).
    assert stats.decompressions <= len(result) + 2
    assert stats.compressed_comparisons + stats.container_accesses > 0
