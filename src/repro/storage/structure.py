"""The structure tree: one record per non-value XML node (paper §2.2).

Each record holds its own ID, the tag code, the IDs of its children,
(redundantly) the parent ID, and pointers to its attribute and text
children in their containers.  A B+ search tree over the records is the
paper's access-support structure; ``Parent``/``Child`` operators resolve
through it.

IDs are assigned in document order, so iterating records by ascending ID
is document order — the property the order-preserving operators (§4)
rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import NodeNotFoundError
from repro.storage.btree import BPlusTree
from repro.storage.ids import StructuralId


@dataclass(slots=True)
class NodeRecord:
    """One structure-tree node record."""

    node_id: int
    tag_code: int
    parent_id: int  # -1 for the root
    children: list[int] = field(default_factory=list)
    #: (container name, record index) pointers to value children —
    #: attribute values and text nodes living in containers.
    value_pointers: list[tuple[str, int]] = field(default_factory=list)
    #: arrival order of element children and text values, as
    #: ``("elem", child id)`` / ``("text", value_pointers index)`` —
    #: what lets XMLSerialize rebuild mixed content exactly.
    content_sequence: list[tuple[str, int]] = field(default_factory=list)
    #: 3-valued ID (pre == node_id); filled by the loader.
    post: int = -1
    level: int = -1

    @property
    def structural_id(self) -> StructuralId:
        """The (pre, post, level) identifier of this node."""
        return StructuralId(self.node_id, self.post, self.level)


class StructureTree:
    """All node records of one document plus the B+ index over them."""

    def __init__(self):
        self._records: list[NodeRecord] = []
        self._index: BPlusTree | None = None
        self._parents = None  # cached parent-id array (lazy)
        self._tags = None  # cached tag-code array (lazy)

    def __len__(self) -> int:
        return len(self._records)

    def add(self, record: NodeRecord) -> None:
        """Append a record; IDs must arrive dense and in order."""
        if record.node_id != len(self._records):
            raise ValueError(
                f"node ids must be dense/sequential; expected "
                f"{len(self._records)}, got {record.node_id}")
        self._records.append(record)
        self._index = None  # invalidated; rebuilt lazily
        self._parents = None
        self._tags = None

    def record(self, node_id: int) -> NodeRecord:
        """The record for ``node_id``; raises NodeNotFoundError."""
        if not 0 <= node_id < len(self._records):
            raise NodeNotFoundError(f"no node with id {node_id}")
        return self._records[node_id]

    def __iter__(self):
        return iter(self._records)

    @property
    def index(self) -> BPlusTree:
        """B+ search tree over node id -> record (built lazily)."""
        if self._index is None:
            self._index = BPlusTree.bulk_load(
                ((r.node_id, r) for r in self._records))
        return self._index

    def parent_array(self):
        """int64 array of parent ids by node id (-1 at the root).

        Cached until the next :meth:`add`; the batch engine's
        vectorized ``Parent`` steps and ancestor climbs index it
        directly instead of calling :meth:`parent_of` per node.
        """
        if self._parents is None:
            self._parents = np.fromiter(
                (r.parent_id for r in self._records),
                dtype=np.int64, count=len(self._records))
        return self._parents

    def tag_array(self) -> np.ndarray:
        """int64 array of tag codes by node id; cached like
        :meth:`parent_array`."""
        if self._tags is None:
            self._tags = np.fromiter(
                (r.tag_code for r in self._records),
                dtype=np.int64, count=len(self._records))
        return self._tags

    # -- navigation primitives used by the physical operators -------------

    def parent_of(self, node_id: int) -> int | None:
        """Parent id, or ``None`` at the root."""
        parent = self.record(node_id).parent_id
        return None if parent < 0 else parent

    def children_of(self, node_id: int,
                    tag_code: int | None = None) -> list[int]:
        """Child ids in document order, optionally filtered by tag."""
        children = self.record(node_id).children
        if tag_code is None:
            return list(children)
        records = self._records
        return [c for c in children if records[c].tag_code == tag_code]

    def descendants_of(self, node_id: int,
                       tag_code: int | None = None) -> list[int]:
        """Descendant ids in document order.

        Ids are preorder ranks, so the descendants are the dense range
        after ``node_id``.  ``post`` counts the nodes closed before
        this one: its descendants plus the ``pre - level`` earlier
        nodes that are not its ancestors — so the range ends at
        ``post + level``, read off the record, never scanned.
        """
        record = self.record(node_id)
        start, end = node_id + 1, record.post + record.level + 1
        if tag_code is None:
            return list(range(start, end))
        hits = np.flatnonzero(self.tag_array()[start:end] == tag_code)
        return (hits + start).tolist()

    # -- accounting --------------------------------------------------------

    def record_size_bytes(self, record: NodeRecord,
                          tag_bits: int = 8) -> int:
        """Serialized size of one record in a compact binary layout.

        IDs are dense and document-ordered, so they are implicit (the
        record's position); the parent is a backward delta varint, the
        children forward delta varints, the post number a varint, and
        each value pointer a (container-id, offset) varint pair.  This
        is the representation a production record format would use —
        the 4-bytes-everything estimate would dominate the document and
        make the paper's compression factors unreachable.
        """
        from repro.util.varint import varint_size
        tag_bytes = (tag_bits + 7) // 8
        size = tag_bytes
        size += varint_size(record.node_id - record.parent_id
                            if record.parent_id >= 0 else 0)
        # post numbers track preorder ranks closely (they differ by the
        # open-ancestor count), so the zigzag delta is ~1 byte.
        size += varint_size(abs(record.post - record.node_id) * 2 + 1
                            if record.post >= 0 else 0)
        size += varint_size(len(record.children))
        previous = record.node_id
        for child in record.children:
            size += varint_size(child - previous)
            previous = child
        for _, offset in record.value_pointers:
            size += 1 + varint_size(offset)  # container id + slot
        return size

    def backward_edge_bytes(self) -> int:
        """Bytes spent on the redundant parent pointers (§2.2: part of
        the access support that can be dropped to shrink the store)."""
        from repro.util.varint import varint_size
        return sum(
            varint_size(r.node_id - r.parent_id)
            for r in self._records if r.parent_id >= 0)

    def serialized_size_bytes(self, tag_bits: int = 8) -> int:
        """Total serialized record bytes (without the B+ index)."""
        return sum(self.record_size_bytes(r, tag_bits)
                   for r in self._records)

    def index_size_bytes(self) -> int:
        """Approximate serialized size of the B+ search tree.

        The leaf payload *is* the record sequence (already counted by
        :meth:`serialized_size_bytes`); the index proper is the internal
        separator levels.
        """
        internal, _ = self.index.node_count()
        return internal * 512
