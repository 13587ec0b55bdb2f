"""Structural joins over 3-valued IDs — the paper's §6 extension.

The measured prototype uses *simple unique IDs*, which force a
parent-child join per path step (the reason Q2/Q3/Q16 trail Galax in
Figure 7).  The paper names the fix as immediate future work: 3-valued
``(pre, post, level)`` IDs in the spirit of TIMBER / Grust's
pre-post encoding / the structural-join primitive [26, 27, 28].

This module implements that extension:

* the structure tree already carries ``pre`` (= the simple ID), and
  ``post`` and ``level`` columns;
* :class:`StructuralJoin` is the classic *stack-tree-descendant* merge:
  both inputs arrive in document (pre) order, a stack carries the open
  ancestors, and every ancestor/descendant (or parent/child) pair is
  emitted in one pass — no per-step navigation, no quadratic blowup.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.query.batch import batches_from_rows
from repro.query.context import EvaluationStats, NodeItem
from repro.query.physical import Operator, Row, input_rows
from repro.storage.structure import StructureTree


class StructuralJoin(Operator):
    """Stack-based merge join on the ancestor/descendant axis.

    ``ancestors`` and ``descendants`` are row iterables whose
    ``ancestor_column``/``descendant_column`` hold :class:`NodeItem`s
    in document order (as ``StructureSummaryAccess`` emits them).
    ``axis`` is ``"descendant"`` or ``"child"``.  Output pairs are
    ordered by the descendant's document order.
    """

    def __init__(self, ancestors: Iterable[Row],
                 descendants: Iterable[Row],
                 structure: StructureTree,
                 ancestor_column: str, descendant_column: str,
                 axis: str = "descendant",
                 stats: EvaluationStats | None = None):
        if axis not in ("descendant", "child"):
            raise ValueError(f"unsupported axis {axis!r}")
        self._ancestors = ancestors
        self._descendants = descendants
        self._structure = structure
        self._ancestor_column = ancestor_column
        self._descendant_column = descendant_column
        self._axis = axis
        self._stats = stats

    def _batches(self, size: int):
        # Stack-based holistic join: output order depends on a shared
        # stack across the whole descendant stream, so the row
        # algorithm is chunked rather than the stack split.
        return batches_from_rows(self._pairs(size), size)

    def _pairs(self, size: int) -> Iterator[Row]:
        structure = self._structure
        a_column = self._ancestor_column
        d_column = self._descendant_column
        child_only = self._axis == "child"

        def annotated(rows: Iterable[Row], column: str):
            rows = list(rows)
            ids = [row[column].node_id for row in rows]
            return list(zip(ids, structure.posts[ids].tolist(),
                            structure.levels[ids].tolist(), rows))

        ancestors = annotated(input_rows(self._ancestors, size),
                              a_column)
        descendants = annotated(input_rows(self._descendants, size),
                                d_column)
        if self._stats is not None:
            self._stats.nodes_visited += len(ancestors) \
                + len(descendants)

        a_index = 0
        a_count = len(ancestors)
        # Stack entries: (post, level, row), innermost on top.
        stack: list[tuple[int, int, Row]] = []
        for d_pre, d_post, d_level, d_row in descendants:
            # Push every ancestor candidate that starts before d,
            # first popping entries whose subtree ended (the stack
            # invariant: each entry contains the next).
            while a_index < a_count:
                a_pre, a_post, a_level, a_row = ancestors[a_index]
                if a_pre >= d_pre:
                    break
                while stack and stack[-1][0] < a_post:
                    stack.pop()
                stack.append((a_post, a_level, a_row))
                a_index += 1
            # Pop candidates whose subtree ended before d.
            while stack and stack[-1][0] < d_post:
                stack.pop()
            # Everything left on the stack contains d.
            for _, a_level, a_row in stack:
                if child_only and a_level != d_level - 1:
                    continue
                yield {**a_row, **d_row}


def structural_pairs(structure: StructureTree,
                     ancestor_ids: list[int],
                     descendant_ids: list[int],
                     axis: str = "descendant"
                     ) -> list[tuple[int, int]]:
    """Convenience wrapper joining two plain id lists."""
    join = StructuralJoin(
        [{"a": NodeItem(i)} for i in sorted(ancestor_ids)],
        [{"d": NodeItem(i)} for i in sorted(descendant_ids)],
        structure, "a", "d", axis=axis)
    return [(row["a"].node_id, row["d"].node_id) for row in join]


def navigation_pairs(structure: StructureTree,
                     ancestor_ids: list[int],
                     descendant_ids: list[int],
                     axis: str = "descendant"
                     ) -> list[tuple[int, int]]:
    """The simple-ID baseline: per-descendant parent-chain walking.

    This is what the measured prototype effectively does (its data
    model "imposes a large number of parent-child joins", §5) — each
    descendant climbs its parent chain testing membership.
    """
    ancestors = set(ancestor_ids)
    pairs: list[tuple[int, int]] = []
    for descendant in sorted(descendant_ids):
        node = structure.parent_of(descendant)
        hops = 1
        while node is not None:
            if node in ancestors and (axis == "descendant" or hops == 1):
                pairs.append((node, descendant))
            node = structure.parent_of(node)
            hops += 1
    return pairs
