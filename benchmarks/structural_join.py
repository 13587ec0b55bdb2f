"""Structural joins over 3-valued IDs — the paper's §6 extension.

The measured prototype uses *simple unique IDs*, which force a
parent-child join per path step (the reason Q2/Q3/Q16 trail Galax in
Figure 7).  The paper names the fix as immediate future work: 3-valued
``(pre, post, level)`` IDs in the spirit of TIMBER / Grust's
pre-post encoding / the structural-join primitive [26, 27, 28].

This module implements that extension for ablation A4
(``test_ablation_structural_join.py``); the engine never runs it:

* the structure tree already carries ``pre`` (= the simple ID), and
  ``post`` and ``level`` columns;
* :func:`structural_join` is the classic *stack-tree-descendant*
  merge: both id arrays arrive in document (pre) order, a stack carries
  the open ancestors, and every ancestor/descendant (or parent/child)
  pair is found in one pass — no per-step navigation, no quadratic
  blowup.  No plan binds it, so it is a function over id arrays, not
  a physical operator.
"""

from __future__ import annotations

import numpy as np

from repro.storage.structure import StructureTree


def structural_join(structure: StructureTree, ancestors: np.ndarray,
                    descendants: np.ndarray, axis: str = "descendant"
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Stack-based merge join on the ancestor/descendant axis.

    ``ancestors`` and ``descendants`` are ``int64`` element ids in
    document order (as ``StructureSummaryAccess`` returns them).
    ``axis`` is ``"descendant"`` or ``"child"``.  Returns the ancestor
    and the descendant id of every pair, ordered by the descendant's
    document order.
    """
    if axis not in ("descendant", "child"):
        raise ValueError(f"unsupported axis {axis!r}")
    child_only = axis == "child"

    def annotated(ids: np.ndarray) -> list[tuple[int, int, int]]:
        return list(zip(ids.tolist(), structure.posts[ids].tolist(),
                        structure.levels[ids].tolist()))

    ancestors = annotated(ancestors)
    a_index = 0
    a_count = len(ancestors)
    pairs: list[tuple[int, int]] = []
    # Stack entries: (post, level, id), innermost on top.
    stack: list[tuple[int, int, int]] = []
    for d_pre, d_post, d_level in annotated(descendants):
        # Push every ancestor candidate that starts before d,
        # first popping entries whose subtree ended (the stack
        # invariant: each entry contains the next).
        while a_index < a_count:
            a_pre, a_post, a_level = ancestors[a_index]
            if a_pre >= d_pre:
                break
            while stack and stack[-1][0] < a_post:
                stack.pop()
            stack.append((a_post, a_level, a_pre))
            a_index += 1
        # Pop candidates whose subtree ended before d.
        while stack and stack[-1][0] < d_post:
            stack.pop()
        # Everything left on the stack contains d.
        pairs += [(a_pre, d_pre) for _, a_level, a_pre in stack
                  if not child_only or a_level == d_level - 1]
    out = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return out[:, 0], out[:, 1]


def structural_pairs(structure: StructureTree,
                     ancestor_ids: list[int],
                     descendant_ids: list[int],
                     axis: str = "descendant"
                     ) -> list[tuple[int, int]]:
    """Convenience wrapper joining two plain id lists."""
    ancestors, descendants = structural_join(
        structure, np.array(sorted(ancestor_ids), dtype=np.int64),
        np.array(sorted(descendant_ids), dtype=np.int64), axis)
    return list(zip(ancestors.tolist(), descendants.tolist()))


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
