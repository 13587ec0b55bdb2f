"""Benchmark support for the paper-figure tables of ``benchmarks/``:
result-table formatting (:mod:`~repro.bench.reporting`) and their
collation into ``benchmarks/results/INDEX.md``
(:mod:`~repro.bench.collate`)."""

from repro.bench.reporting import format_table, record_result

__all__ = [
    "format_table",
    "record_result",
]
