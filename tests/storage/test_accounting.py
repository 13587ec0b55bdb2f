"""The §2.2 accounting is pinned: every ``SizeReport`` field of fixed
documents, and the accounted B+ index size at its level boundaries.

The literals were computed before the structure tree became columns,
when the records were objects and a B+ tree was bulk-loaded over them
only to be counted; the columns must account exactly the same bytes.
"""

import pytest

from repro.storage.loader import load_document
from repro.storage.repository import SizeReport
from repro.storage.structure import StructureTree
from repro.xmark import (
    generate_baseball,
    generate_shakespeare,
    generate_washington_course,
    generate_xmark,
)

#: (generator, factor, seed, report) — the four ``ingest`` documents of
#: ``benchmarks/e2e`` and the ``select``/``serve`` one, default load.
PINNED = [
    (generate_xmark, 0.008, 42, SizeReport(
        name_dictionary=456, structure_records=10_202, structure_index=512,
        container_data=22_243, source_models=23_673, summary=4_723,
        original=96_766, backward_edges=4_044)),
    (generate_shakespeare, 0.027, 7, SizeReport(
        name_dictionary=76, structure_records=30_803, structure_index=512,
        container_data=43_105, source_models=6_251, summary=7_832,
        original=183_476, backward_edges=11_089)),
    (generate_washington_course, 0.05, 11, SizeReport(
        name_dictionary=74, structure_records=20_291, structure_index=512,
        container_data=17_558, source_models=8_773, summary=5_392,
        original=90_415, backward_edges=7_848)),
    (generate_baseball, 0.09, 13, SizeReport(
        name_dictionary=201, structure_records=29_354, structure_index=512,
        container_data=15_847, source_models=2_149, summary=8_349,
        original=97_349, backward_edges=11_702)),
    (generate_xmark, 0.05, 42, SizeReport(
        name_dictionary=456, structure_records=66_635,
        structure_index=2_048, container_data=134_153,
        source_models=57_432, summary=19_609, original=606_997,
        backward_edges=26_432)),
]


@pytest.mark.parametrize(
    "generate, factor, seed, report", PINNED,
    ids=[f"{g.__name__}-{f}" for g, f, _, _ in PINNED])
def test_size_report_pinned(generate, factor, seed, report):
    assert load_document(generate(factor, seed=seed)).size_report() \
        == report


def flat_tree(count: int) -> StructureTree:
    """A root and ``count - 1`` leaf children, no values."""
    if not count:
        return StructureTree([], [], [], [], [], [0], [], [], [0], [])
    leaves = list(range(1, count))
    return StructureTree(
        parents=[-1] + [0] * len(leaves), tags=[0] * count,
        posts=[count - 1] + [leaf - 1 for leaf in leaves],
        levels=[0] + [1] * len(leaves), paths=[],
        pointer_offsets=[0] * (count + 1), pointer_containers=[],
        pointer_slots=[], content_offsets=[0] + [len(leaves)] * count,
        content=leaves)


@pytest.mark.parametrize("count, size", [
    (0, 0), (1, 0), (64, 0), (65, 512), (4_160, 512), (4_161, 1_536),
    (9_490, 2_048), (270_400, 33_792), (270_401, 35_328)])
def test_index_size_matches_the_bulk_loaded_tree(count, size):
    """An order-64 bulk load packs 64 keys a leaf and 65 children an
    internal node; each internal node accounts 512 bytes."""
    assert flat_tree(count).index_size_bytes() == size
