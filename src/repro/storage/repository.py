"""The compressed repository: everything one document shreds into.

Provides the compressed data access methods and the compression-specific
utilities the query processor builds on (paper §1.1, module 2), plus the
size accounting behind the compression-factor experiments (§5) and the
occupancy breakdown of §2.2.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from repro.errors import ContainerNotFoundError
from repro.storage.containers import ValueContainer
from repro.storage.name_dictionary import NameDictionary
from repro.storage.statistics import DocumentStatistics
from repro.storage.structure import StructureTree
from repro.storage.summary import TEXT_STEP, StructureSummary, SummaryNode
from repro.xmlio.escape import escape_attribute, escape_text


@dataclass(frozen=True)
class SizeReport:
    """Byte sizes of each storage component (paper §2.2 accounting)."""

    name_dictionary: int
    structure_records: int
    structure_index: int
    container_data: int
    source_models: int
    summary: int
    original: int
    #: bytes of the redundant parent pointers inside structure records
    #: and containers — "backward edges", part of the access support.
    backward_edges: int = 0

    @property
    def total(self) -> int:
        """Everything, access-support structures included."""
        return (self.name_dictionary + self.structure_records
                + self.structure_index + self.container_data
                + self.source_models + self.summary)

    @property
    def essential(self) -> int:
        """Without access support (§2.2): no B+ index, no structure
        summary, no backward edges — the configuration the paper says
        shrinks the database by a factor of 3 to 4 at the price of
        deteriorated query performance."""
        return max(self.total - self.structure_index - self.summary
                   - self.backward_edges, 0)

    @property
    def compression_factor(self) -> float:
        """The paper's CF = 1 - cs/os over the full repository."""
        if self.original <= 0:
            return 0.0
        return 1.0 - self.total / self.original


#: every repository alive in this process (:func:`live_repositories`).
_LIVE: "weakref.WeakSet[CompressedRepository]" = weakref.WeakSet()


def live_repositories() -> list["CompressedRepository"]:
    """The repositories alive in this process: the codecs a shipped
    result frame may name (:mod:`repro.query.shipping`)."""
    return list(_LIVE)


class CompressedRepository:
    """One compressed, queryable document."""

    def __init__(self, dictionary: NameDictionary,
                 structure: StructureTree,
                 summary: StructureSummary,
                 containers: dict[str, ValueContainer],
                 statistics: DocumentStatistics,
                 original_size_bytes: int):
        self.dictionary = dictionary
        self.structure = structure
        self.summary = summary
        self._containers = containers
        self.statistics = statistics
        self.original_size_bytes = original_size_bytes
        _LIVE.add(self)

    # -- container access ---------------------------------------------------

    def container(self, path: str) -> ValueContainer:
        """Container by path expression; raises ContainerNotFoundError."""
        container = self._containers.get(path)
        if container is None:
            raise ContainerNotFoundError(
                f"no container for path {path!r}")
        return container

    def containers(self) -> list[ValueContainer]:
        """All containers, sorted by path."""
        return [self._containers[p] for p in sorted(self._containers)]

    def container_paths(self) -> list[str]:
        """All container path expressions, sorted."""
        return sorted(self._containers)

    # -- node-level utilities used by operators and serialization ------------

    def text_of(self, node_id: int) -> str:
        """Concatenated decompressed text of a node's *direct* text
        children (not descendants)."""
        return "".join(self._value(container, slot) for container, slot
                       in self.structure.values_of(node_id, TEXT_STEP))

    def full_text_of(self, node_id: int) -> str:
        """The node's string value: every text of its subtree, in
        document order."""
        return "".join(self._value(container, slot) for container, slot
                       in self.structure.subtree_texts(node_id))

    def attribute_of(self, node_id: int, name: str) -> str | None:
        """Decompressed value of attribute ``name``, or ``None``."""
        for container, slot in self.structure.values_of(node_id,
                                                        "@" + name):
            return self._value(container, slot)
        return None

    def _value(self, container: int, slot: int) -> str:
        return self._containers[self.structure.paths[container]] \
            .value_at(slot)

    def to_xml(self, node_id: int = 0) -> str:
        """The stored subtree at ``node_id`` as compact XML, straight
        from the columns: ``serialize`` of ``materialize_node`` with no
        DOM, each container read raw (no cache), its slots decoded once.
        Tokens — ``<name``, attributes, ``>`` or ``/>``, texts,
        ``</name>`` — sort into document order by the node opened next
        (a node's own tokens: its id), then by rank: the texts and
        closes before a node climb the tree, deepest first."""
        s, end = self.structure, self.structure.subtree_end(node_id)
        ids, tags, levels = (np.arange(node_id, end), s.tags[node_id:end],
                             s.levels[node_id:end])
        stops = s.posts[node_id:end] + levels + 1
        low, high = s.pointer_offsets[[node_id, end]].tolist()
        which, slots = (s.pointer_containers[low:high],
                        s.pointer_slots[low:high])
        markup = np.empty(len(slots), dtype=object)
        order = np.lexsort((slots, which))
        bounds = np.flatnonzero(np.diff(which[order])) + 1
        for run in np.split(order, bounds) if len(order) else ():
            path, step = s.paths[which[run[0]]], s.steps[which[run[0]]]
            values = map(self._containers[path].value_at,
                         slots[run].tolist())
            markup[run] = list(map(escape_text, values)) \
                if step == TEXT_STEP else \
                [f' {step[1:]}="{escape_attribute(value)}"'
                 for value in values]
        attributes = np.flatnonzero(np.array(
            [step != TEXT_STEP for step in s.steps], dtype=bool)[which])
        holders = np.repeat(ids, np.diff(
            s.pointer_offsets[node_id:end + 1]))[attributes]
        # A text comes before its owner's next child, else its owner's
        # end; the content ends in a sentinel child owned by no node.
        counts = np.diff(s.content_offsets[node_id:end + 1])
        first, last = s.content_offsets[[node_id, end]].tolist()
        content = np.append(s.content[first:last], 0)
        owners = np.append(np.repeat(ids, counts), -1)
        texts = np.flatnonzero(content < 0)
        children = np.flatnonzero(content >= 0)
        following = children[np.searchsorted(children, texts)]
        owner, full = owners[texts], counts > 0
        local, names = owner - node_id, self.dictionary.names()
        opens = np.array(["<" + name for name in names], dtype=object)
        closes = np.array([f"</{name}>" for name in names], dtype=object)
        # (tokens, node opened next, rank, tie) per kind of token
        kinds = [
            (opens[tags], ids, 1, 0),
            (markup[attributes], holders, 2, attributes),
            (np.where(full, ">", "/>").astype(object), ids, 3, 0),
            (markup[s.pointer_offsets[owner] + ~content[texts] - low],
             np.where(owners[following] == owner, content[following],
                      stops[local]), -2 * levels[local] - 1, texts),
            (closes[tags[full]], stops[full], -2 * levels[full], 0)]
        tokens, after, rank, tie = (np.concatenate([
            np.broadcast_to(kind[column], len(kind[0])) for kind in kinds])
            for column in range(4))
        return "".join(tokens[np.lexsort((tie, rank, after))].tolist())

    def tag_of(self, node_id: int) -> str:
        """Element name of a node."""
        return self.dictionary.name_of(
            self.structure.tag_code_of(node_id))

    def resolve_path(self, steps: list[tuple[str, str]]
                     ) -> list[SummaryNode]:
        """Resolve a path against the structure summary."""
        return self.summary.resolve(steps)

    def drop_array_views(self) -> None:
        """Release every container's memoized array view.

        Part of serving-layer cache invalidation: flushing the caches
        also frees the :meth:`ValueContainer.as_arrays
        <repro.storage.containers.ValueContainer.as_arrays>` memos, and
        the summary's owner groups (:meth:`SummaryNode.by_owner
        <repro.storage.summary.SummaryNode.by_owner>`) go with them."""
        for container in self._containers.values():
            container.drop_arrays()
        for node in self.summary.root.walk():
            node.drop_groups()

    # -- accounting -----------------------------------------------------------

    def size_report(self) -> SizeReport:
        """Byte sizes of every storage component."""
        container_data = sum(c.data_size_bytes()
                             for c in self._containers.values())
        # Shared source models must be counted once, not per container.
        seen_models: set[int] = set()
        source_models = 0
        for container in self._containers.values():
            codec_id = id(container.codec)
            if codec_id not in seen_models:
                seen_models.add(codec_id)
                source_models += container.model_size_bytes()
        from repro.util.varint import varint_size
        container_parent_bytes = 0
        for container in self._containers.values():
            for parent_id, _ in container.scan_decoded():
                container_parent_bytes += varint_size(parent_id)
        return SizeReport(
            name_dictionary=self.dictionary.serialized_size_bytes(),
            structure_records=self.structure.serialized_size_bytes(
                tag_bits=self.dictionary.code_bits),
            structure_index=self.structure.index_size_bytes(),
            container_data=container_data,
            source_models=source_models,
            summary=self.summary.serialized_size_bytes(),
            original=self.original_size_bytes,
            backward_edges=self.structure.backward_edge_bytes()
            + container_parent_bytes,
        )

    @property
    def compression_factor(self) -> float:
        """CF = 1 - cs/os including all access structures (paper §5)."""
        return self.size_report().compression_factor

    def __repr__(self) -> str:
        return (f"<CompressedRepository {len(self.structure)} nodes, "
                f"{len(self._containers)} containers>")
