"""The loader/compressor: XML text -> compressed repository (paper §1.1).

Reads the XML scanner's tuples in one pass (never materialising a DOM),
assigning document-order IDs, then builds the structure tree, the
structure summary with its extents, the per-path value containers and
the statistics from flat columns.  Containers are then *sealed*: their
elementary type is inferred (XPRESS-style), a compression configuration
decides codec and source-model sharing, and every value is individually
compressed.

Codec choice without a workload follows §2.1: ALM for strings (so that
any later inequality predicate stays in the compressed domain), typed
codecs for canonical numeric containers.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.compression.registry import train_and_encode
from repro.storage.name_dictionary import NameDictionary
from repro.storage.repository import CompressedRepository
from repro.storage.statistics import DocumentStatistics
from repro.storage.structure import StructureTree, offsets_of
from repro.storage.summary import TEXT_STEP, StructureSummary
from repro.storage.containers import ValueContainer
from repro.xmlio.events import END_TAG, START_TAG, scan

#: default string codec when no workload is given (paper §2.1).
DEFAULT_STRING_CODEC = "alm"


def infer_value_type(values: Iterable[str]) -> str:
    """XPRESS-style elementary type inference for a container.

    ``int``/``float`` only when *every* value round-trips canonically,
    so compression stays lossless.  A container mixing the two text
    forms (``"500"`` and ``"5.5"``) stays ``string``: the float codec's
    canonical domain would rewrite ``"500"`` to ``"500.0"`` on decode,
    which is lossy, and the reference comparison semantics for untyped
    text are lexicographic anyway.
    """
    from repro.compression.numeric import (
        is_canonical_float,
        is_canonical_int,
    )
    values = list(values)
    if values and all(map(is_canonical_int, values)):
        return "int"
    if values and all(map(is_canonical_float, values)):
        return "float"
    return "string"


def load_document(xml_text: str, configuration=None,
                  default_string_codec: str = DEFAULT_STRING_CODEC
                  ) -> CompressedRepository:
    """Parse, shred and compress one XML document.

    ``configuration`` is an optional
    :class:`repro.partitioning.config.CompressionConfiguration` produced
    by the workload-driven search; without one, the §2.1 defaults apply.
    """
    dictionary = NameDictionary()
    intern = dictionary.intern
    summary = StructureSummary()
    # One pass over the scanner's tuples appends to flat lists: per
    # element its parent, tag code and depth; per value its summary
    # leaf, owner and text; per content entry its owner and entry (a
    # child's id, or ~k for the owner's k-th value: a text's k is
    # filled in afterwards).  Everything else is built from the lists.
    parents: list[int] = []
    tags: list[int] = []
    levels: list[int] = []
    closed: list[int] = []      # element ids in end-tag order
    values: list[str] = []
    value_leaves: list = []
    value_owners: list[int] = []
    content_owners: list[int] = []
    content: list[int] = []
    leaves: list = []           # summary leaves in creation order
    open_ids = [-1]
    open_nodes = [summary.root]

    def leaf_of(node, step: str):
        leaf = node.children.get(step)
        if leaf is None:
            leaf = node.child(step)
            leaves.append(leaf)
            if step != TEXT_STEP:
                intern(step)
        return leaf

    for kind, value, attributes in scan(xml_text):
        if kind == START_TAG:
            node_id = len(parents)
            parents.append(open_ids[-1])
            levels.append(len(open_ids) - 1)
            tags.append(intern(value))
            content_owners.append(open_ids[-1])
            content.append(node_id)
            node = open_nodes[-1].child(value)
            node.extent.append(node_id)
            open_ids.append(node_id)
            open_nodes.append(node)
            for name, text in attributes:
                value_leaves.append(leaf_of(node, "@" + name))
                value_owners.append(node_id)
                values.append(text)
        elif kind == END_TAG:
            closed.append(open_ids.pop())
            open_nodes.pop()
        else:
            content_owners.append(open_ids[-1])
            content.append(~len(values))
            value_leaves.append(leaf_of(open_nodes[-1], TEXT_STEP))
            value_owners.append(open_ids[-1])
            values.append(value)

    # One container per leaf, numbered by sorted path as the stored
    # form does; one stable sort groups the values by container.
    containers = {leaf.path: ValueContainer(leaf.path) for leaf in leaves}
    paths = sorted(containers)
    position = {path: index for index, path in enumerate(paths)}
    rank = {leaf: position[leaf.path] for leaf in leaves}
    which = np.fromiter(map(rank.__getitem__, value_leaves), np.int64,
                        len(values))
    owners = np.asarray(value_owners, dtype=np.int64)
    offsets, order = _grouped(which, len(paths))
    for leaf in leaves:
        mine = order[offsets[rank[leaf]]:offsets[rank[leaf] + 1]]
        leaf.extent = owners[mine].tolist()
        leaf.container_path = leaf.path
        containers[leaf.path].stage(
            list(map(values.__getitem__, mine.tolist())), leaf.extent)
    _seal_containers(containers, configuration, default_string_codec)
    # Sealing sorted each container by value: its staged run maps to
    # final slots in one gather.
    slots = np.empty(len(values), dtype=np.int64)
    for index, path in enumerate(paths):
        mine = order[offsets[index]:offsets[index + 1]]
        slots[mine] = containers[path].sorted_position(np.arange(len(mine)))
    pointer_offsets, by_owner = _grouped(owners, len(parents))
    # A text's k: its rank among its owner's value pointers.
    rank_in_owner = np.empty(len(values), dtype=np.int64)
    rank_in_owner[by_owner] = np.arange(len(values)) - np.repeat(
        pointer_offsets[:-1], np.diff(pointer_offsets))
    content = np.asarray(content[1:], dtype=np.int64)  # not the root
    texts = content < 0
    content[texts] = ~rank_in_owner[~content[texts]]
    content_offsets, by_parent = _grouped(content_owners[1:], len(parents))
    posts = np.empty(len(closed), dtype=np.int64)
    posts[closed] = np.arange(len(closed))
    structure = StructureTree(
        parents, tags, posts, levels, paths, pointer_offsets,
        which[by_owner], slots[by_owner], content_offsets,
        content[by_parent])
    return CompressedRepository(
        dictionary=dictionary,
        structure=structure,
        summary=summary,
        containers=containers,
        statistics=_statistics(dictionary, summary, structure,
                               len(values) - int(texts.sum())),
        original_size_bytes=len(xml_text.encode("utf-8")),
    )


def _statistics(dictionary: NameDictionary, summary: StructureSummary,
                structure: StructureTree,
                attribute_count: int) -> DocumentStatistics:
    """The §2.2 counters, from the structure columns and the extents."""
    tags = structure.tags
    statistics = DocumentStatistics(
        element_count=len(tags), attribute_count=attribute_count,
        text_count=len(structure.pointer_slots) - attribute_count,
        max_depth=int(structure.levels.max()) + 1)
    name_of = dictionary.names().__getitem__
    statistics.tag_cardinality.update(map(name_of, tags.tolist()))
    statistics._fanout_sum.update(map(name_of, tags[
        structure.parents[structure.parents >= 0]].tolist()))
    for node in summary.root.walk():
        if node.parent is not None and node.container_path is None:
            statistics.path_cardinality[node.path] = len(node.extent)
    return statistics


def _grouped(owners: list[int], count: int
             ) -> tuple[np.ndarray, np.ndarray]:
    """CSR offsets of entries staged with their ``owners`` over ``count``
    nodes, and the stable order that groups the entries by owner."""
    owners = np.asarray(owners, dtype=np.int64)
    return offsets_of(np.bincount(owners, minlength=count)), \
        np.argsort(owners, kind="stable")


def _seal_containers(containers: dict[str, ValueContainer],
                     configuration,
                     default_string_codec: str) -> None:
    """Choose codecs (configuration or defaults) and seal everything."""
    remaining = dict(containers)
    if configuration is not None:
        for group in configuration.groups:
            members = [remaining.pop(path) for path in group.container_paths
                       if path in remaining]
            if not members:
                continue
            # One shared source model per group (§3): train on the union
            # of the members' values.  Workload groups always use string
            # codecs, so the containers keep string ordering: the
            # lexicographic record order must match the codec's
            # compressed order.
            _train_and_seal(group.algorithm, members,
                            [c.pending_values for c in members])
    for container in remaining.values():
        values = container.pending_values
        container.value_type = infer_value_type(values)
        if container.value_type == "int":
            algorithm = "integer"
        elif container.value_type == "float":
            algorithm = "float"
        else:
            algorithm = default_string_codec
        _train_and_seal(algorithm, [container], [values])


def _train_and_seal(algorithm: str, members: list[ValueContainer],
                    staged: list[list[str]]) -> None:
    """Train one codec on the members' staged values and seal each
    member with its share of the values training already compressed."""
    codec, encoded = train_and_encode(
        algorithm, [value for values in staged for value in values])
    start = 0
    for container, values in zip(members, staged):
        stop = start + len(values)
        container.seal(codec, encoded and encoded[start:stop])
        start = stop
