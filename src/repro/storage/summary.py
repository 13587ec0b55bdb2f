"""The structure summary (path summary / dataguide) — paper §2.2.

A small tree of all *distinct* paths in the document.  Every summary
node accessible by path ``p`` stores the list of document node IDs
reachable by ``p`` (its *extent*), in document order; leaf nodes (text
and attribute steps) point to the corresponding value container.

It is the entry point of query evaluation: ``StructureSummaryAccess``
resolves a path expression against the summary — never against the
full structure tree — and hands the engine the extent and the
containers to fetch (Figure 4's selective container access).
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

#: virtual step names for value children.
TEXT_STEP = "#text"


class SummaryNode:
    """One distinct path in the document."""

    __slots__ = ("step", "parent", "path", "children", "extent",
                 "container_path", "_by_owner")

    def __init__(self, step: str, parent: "SummaryNode | None" = None):
        self.step = step
        self.parent = parent
        #: absolute path expression, e.g. ``/site/people/person/@id``.
        self.path = "/" if parent is None else \
            f"{parent.path if parent.parent else ''}/{step}"
        self.children: dict[str, SummaryNode] = {}
        #: document node ids reachable by this path, document order.
        self.extent: list[int] = []
        #: container fed by this path (leaf steps only).
        self.container_path: str | None = None
        self._by_owner: dict[int, dict[int, list[int]]] = {}

    def child(self, step: str) -> "SummaryNode":
        """Get or create the child summary node for ``step``."""
        node = self.children.get(step)
        if node is None:
            node = SummaryNode(step, self)
            self.children[step] = node
        return node

    def by_owner(self, hops: int, parents: np.ndarray
                 ) -> dict[int, list[int]]:
        """The extent grouped by the element ``hops`` parent steps above
        each node (``parents``: the structure's parent array), each
        group in document order — memoised per ``hops``, what a
        projected element path reads.  The nodes of one summary node
        share a depth, so their owners ascend along the extent: a
        group is a run, cut where the owner changes."""
        groups = self._by_owner.get(hops)
        if groups is None:
            owners = np.asarray(self.extent, dtype=np.int64)
            for _ in range(hops):
                owners = np.where(owners >= 0, parents[owners], -1)
            keys, starts, sizes = np.unique(owners, return_index=True,
                                            return_counts=True)
            extent = self.extent
            groups = {owner: extent[start:start + size]
                      for owner, start, size in zip(
                          keys.tolist(), starts.tolist(), sizes.tolist())}
            self._by_owner[hops] = groups
        return groups

    def drop_groups(self) -> None:
        """Forget the :meth:`by_owner` memos."""
        self._by_owner = {}

    def walk(self) -> Iterator["SummaryNode"]:
        """This node and all descendants, preorder (one stack, not a
        generator per level: ``//`` steps walk the whole summary)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children.values()))

    def __repr__(self) -> str:
        return f"<SummaryNode {self.path} extent={len(self.extent)}>"


class StructureSummary:
    """Root of the path summary with path-expression resolution."""

    def __init__(self):
        self.root = SummaryNode("")  # virtual document node

    def node_count(self) -> int:
        """Number of distinct paths (excluding the virtual root)."""
        return sum(1 for _ in self.root.walk()) - 1

    def resolve(self, steps: list[tuple[str, str]],
                start: SummaryNode | None = None) -> list[SummaryNode]:
        """Resolve a path against the summary, from the root or from
        the summary node ``start``.

        ``steps`` is a list of (axis, name) pairs with axis ``child`` or
        ``descendant``; ``name`` may be ``*`` (any element step), an
        element/attribute name (attributes prefixed ``@``), or
        ``#text``.  Returns every summary node the path reaches.
        """
        frontier = [self.root if start is None else start]
        for axis, name in steps:
            matched: list[SummaryNode] = []
            seen: set[int] = set()
            for node in frontier:
                candidates: Iterator[SummaryNode]
                if axis == "child" and name != "*":
                    # A node's children are keyed by their step.
                    child = node.children.get(name)
                    candidates = iter(() if child is None else (child,))
                elif axis == "child":
                    candidates = iter(node.children.values())
                elif axis == "descendant":
                    candidates = (n for child in node.children.values()
                                  for n in child.walk())
                else:
                    raise ValueError(f"unknown axis {axis!r}")
                for candidate in candidates:
                    if not _step_matches(candidate.step, name):
                        continue
                    if id(candidate) not in seen:
                        seen.add(id(candidate))
                        matched.append(candidate)
            frontier = matched
            if not frontier:
                break
        return frontier

    def leaves(self) -> list[SummaryNode]:
        """All summary nodes that feed containers."""
        return [n for n in self.root.walk()
                if n.container_path is not None]

    def serialized_size_bytes(self) -> int:
        """Step names + delta-varint extents + child pointers.

        The extents are what makes the summary an *access support
        structure* rather than a pure schema: they are the per-path node
        id lists Figure 4's evaluation jumps through.  They are
        ascending document-order ids, so deltas are small varints.
        """
        from repro.util.varint import delta_sizes
        total = 0
        for node in self.root.walk():
            if node.parent is None:
                continue
            total += len(node.step.encode("utf-8")) + 1
            total += delta_sizes(node.extent)
            total += 2 * len(node.children)
        return total


def _step_matches(step: str, name: str) -> bool:
    if name == "*":
        return not step.startswith("@") and step != TEXT_STEP
    return step == name
