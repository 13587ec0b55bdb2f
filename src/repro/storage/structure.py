"""The structure tree (paper §2.2), stored as columns over node ids.

Node ids are dense preorder ranks, so a node's id is its position in
every column and iterating ids ascending is document order — the
property the order-preserving operators (§4) rely on.  Per node the
tree keeps its parent (-1 at the root), tag code, postorder rank and
depth as int64 arrays, and two CSR columns: ``X_offsets[i]:
X_offsets[i + 1]`` is node *i*'s run in the flat arrays.

* **Value pointers** — ``(pointer_containers, pointer_slots)``: the
  container (an index into :attr:`StructureTree.paths`) and record slot
  of each attribute value and text node, attributes first, texts in
  arrival order.
* **Content** — the node's children and texts in document order: a
  child's id (``>= 0``), or ``~k`` for the node's *k*-th value pointer,
  a text.  The element entries *are* the children.

The paper's prototype keeps a B+ search tree over the records; a node
id is already a position here, so no tree is built, and
:meth:`StructureTree.index_size_bytes` accounts what a disk-resident
format would carry for one.
"""

from __future__ import annotations

import numpy as np

from repro.errors import NodeNotFoundError
from repro.util.varint import varint_sizes

#: keys per node of the accounted B+ index, and bytes per internal node.
_INDEX_ORDER = 64
_INDEX_PAGE_BYTES = 512


def offsets_of(counts: np.ndarray) -> np.ndarray:
    """CSR offsets of consecutive runs of ``counts`` entries."""
    return np.concatenate(([0], np.cumsum(counts))).astype(np.int64)


def _column(values) -> np.ndarray:
    array = np.asarray(values, dtype=np.int64)
    array.flags.writeable = False
    return array


class StructureTree:
    """One document's node columns; immutable once built."""

    __slots__ = ("parents", "tags", "posts", "levels", "paths", "steps",
                 "pointer_offsets", "pointer_containers", "pointer_slots",
                 "content_offsets", "content")

    def __init__(self, parents, tags, posts, levels, paths,
                 pointer_offsets, pointer_containers, pointer_slots,
                 content_offsets, content):
        self.parents = _column(parents)
        self.tags = _column(tags)
        self.posts = _column(posts)
        self.levels = _column(levels)
        #: container path per container index, each stored once, and its
        #: last step (``@name`` or ``#text``).
        self.paths = tuple(paths)
        self.steps = tuple(path.rsplit("/", 1)[-1] for path in self.paths)
        self.pointer_offsets = _column(pointer_offsets)
        self.pointer_containers = _column(pointer_containers)
        self.pointer_slots = _column(pointer_slots)
        self.content_offsets = _column(content_offsets)
        self.content = _column(content)

    def __len__(self) -> int:
        return len(self.parents)

    def _check(self, node_id: int) -> None:
        if not 0 <= node_id < len(self.parents):
            raise NodeNotFoundError(f"no node with id {node_id}")

    # -- navigation primitives used by the physical operators -------------

    def parent_of(self, node_id: int) -> int | None:
        """Parent id, or ``None`` at the root."""
        self._check(node_id)
        parent = self.parents.item(node_id)
        return None if parent < 0 else parent

    def tag_code_of(self, node_id: int) -> int:
        """The node's tag code."""
        self._check(node_id)
        return self.tags.item(node_id)

    def children_of(self, node_id: int,
                    tag_code: int | None = None) -> list[int]:
        """Child ids in document order, optionally filtered by tag."""
        self._check(node_id)
        offsets, tags = self.content_offsets, self.tags
        return [child for child in self.content[
                offsets.item(node_id):offsets.item(node_id + 1)].tolist()
                if child >= 0 and (tag_code is None
                                   or tags.item(child) == tag_code)]

    def subtree_end(self, node_id: int) -> int:
        """One past the last id of ``node_id``'s subtree.

        Ids are preorder ranks, so the descendants are the dense range
        after ``node_id``.  ``post`` counts the nodes closed before
        this one: its descendants plus the ``pre - level`` earlier
        nodes that are not its ancestors — so the range ends at
        ``post + level``, read off the columns, never scanned.
        """
        self._check(node_id)
        return self.posts.item(node_id) + self.levels.item(node_id) + 1

    def descendants_of(self, node_id: int,
                       tag_code: int | None = None) -> list[int]:
        """Descendant ids in document order, optionally by tag."""
        start, end = node_id + 1, self.subtree_end(node_id)
        if tag_code is None:
            return list(range(start, end))
        hits = np.flatnonzero(self.tags[start:end] == tag_code)
        return (hits + start).tolist()

    def values_of(self, node_id: int, step: str
                  ) -> list[tuple[int, int]]:
        """``(container index, slot)`` of the node's values whose
        container ends in ``step`` (``@name`` or ``#text``), in pointer
        order — document order for one node's texts (for every text
        below it, :meth:`subtree_texts`)."""
        self._check(node_id)
        start = self.pointer_offsets.item(node_id)
        stop = self.pointer_offsets.item(node_id + 1)
        steps = self.steps
        return [(container, slot) for container, slot in zip(
            self.pointer_containers[start:stop].tolist(),
            self.pointer_slots[start:stop].tolist())
            if steps[container] == step]

    def subtree(self, node_id: int) -> tuple[list[int], ...]:
        """Every column's run over ``node_id``'s subtree, sliced once —
        its nodes, pointers and content are contiguous — as lists
        rebased to its root: ``(tags, pointer_offsets, containers,
        slots, content_offsets, content)``, where local node *i* is the
        root's id plus *i* and a child entry is its local number."""
        end = self.subtree_end(node_id)
        pointers = self.pointer_offsets[node_id:end + 1].tolist()
        offsets = self.content_offsets[node_id:end + 1].tolist()
        p0, c0 = pointers[0], offsets[0]
        return (self.tags[node_id:end].tolist(),
                [pointer - p0 for pointer in pointers],
                self.pointer_containers[p0:pointers[-1]].tolist(),
                self.pointer_slots[p0:pointers[-1]].tolist(),
                [offset - c0 for offset in offsets],
                [entry - node_id if entry >= 0 else entry
                 for entry in self.content[c0:offsets[-1]].tolist()])

    def subtree_texts(self, node_id: int) -> list[tuple[int, int]]:
        """``(container index, slot)`` of every text below ``node_id``,
        in document order: a walk of the content with a stack, so any
        depth walks."""
        _, pointers, containers, slots, offsets, content = \
            self.subtree(node_id)
        found = []
        stack = [(0, 0)]
        while stack:
            local, at = stack.pop()
            while at < offsets[local + 1]:
                entry = content[at]
                at += 1
                if entry >= 0:
                    stack += [(local, at), (entry, offsets[entry])]
                    break
                pointer = pointers[local] + ~entry
                found.append((containers[pointer], slots[pointer]))
        return found

    # -- accounting --------------------------------------------------------

    def serialized_size_bytes(self, tag_bits: int = 8) -> int:
        """Serialized record bytes in a compact binary layout (without
        the B+ index).

        IDs are dense and document-ordered, so they are implicit (the
        record's position); the parent is a backward delta varint, the
        children forward delta varints, the post number a varint, and
        each value pointer a (container-id, offset) varint pair.  This
        is the representation a production record format would use —
        the 4-bytes-everything estimate would dominate the document and
        make the paper's compression factors unreachable.
        """
        count = len(self)
        ids = np.arange(count, dtype=np.int64)
        size = count * ((tag_bits + 7) // 8)
        size += self.backward_edge_bytes() + int((self.parents < 0).sum())
        # post numbers track preorder ranks closely (they differ by the
        # open-ancestor count), so the zigzag delta is ~1 byte.
        size += int(varint_sizes(
            np.abs(self.posts - ids) * 2 + 1).sum())
        owners = np.repeat(ids, np.diff(self.content_offsets))
        is_child = self.content >= 0
        children, owners = self.content[is_child], owners[is_child]
        size += int(varint_sizes(
            np.bincount(owners, minlength=count)).sum())
        previous = owners.copy()
        same = owners[1:] == owners[:-1]
        previous[1:][same] = children[:-1][same]
        size += int(varint_sizes(children - previous).sum())
        size += len(self.pointer_slots) \
            + int(varint_sizes(self.pointer_slots).sum())
        return size

    def backward_edge_bytes(self) -> int:
        """Bytes spent on the redundant parent pointers (§2.2: part of
        the access support that can be dropped to shrink the store)."""
        has_parent = self.parents >= 0
        deltas = np.flatnonzero(has_parent) - self.parents[has_parent]
        return int(varint_sizes(deltas).sum())

    def index_size_bytes(self) -> int:
        """Accounted size of a B+ search tree over the node ids.

        The internal separator levels of an order-64 bulk load — full
        leaves of 64 keys, then groups of 65 children per level up to
        one root — at 512 bytes a node.  The leaf payload *is* the
        record sequence, counted by :meth:`serialized_size_bytes`.
        """
        level = max(1, -(-len(self) // _INDEX_ORDER))
        internal = 0
        while level > 1:
            level = -(-level // (_INDEX_ORDER + 1))
            internal += level
        return internal * _INDEX_PAGE_BYTES
