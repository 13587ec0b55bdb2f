"""The loader/compressor: XML text -> compressed repository (paper §1.1).

Streams SAX-like events (never materialising a DOM), assigning document-
order IDs, building the structure tree, the structure summary with its
extents, the per-path value containers, and the statistics.  Containers
are then *sealed*: their elementary type is inferred (XPRESS-style), a
compression configuration decides codec and source-model sharing, and
every value is individually compressed.

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
from repro.xmlio.events import (
    Characters,
    EndElement,
    StartElement,
    iter_events,
)

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
    saw_any = False
    all_int = True
    all_float = True
    for value in values:
        saw_any = True
        if all_int and not is_canonical_int(value):
            all_int = False
        if all_float and not is_canonical_float(value):
            all_float = False
        if not all_int and not all_float:
            return "string"
    if not saw_any:
        return "string"
    if all_int:
        return "int"
    if all_float:
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
    summary = StructureSummary()
    statistics = DocumentStatistics()
    containers: dict[str, ValueContainer] = {}

    # The structure columns, by node id.  Value pointers and content
    # entries arrive interleaved across the open elements, so they are
    # staged with their owner and grouped by it once, at the end.
    parents: list[int] = []
    tags: list[int] = []
    posts: list[int] = []
    levels: list[int] = []
    pointer_counts: list[int] = []
    pointer_owners: list[int] = []
    pointer_paths: list[str] = []
    pointer_staged: list[int] = []
    content_owners: list[int] = []
    content: list[int] = []

    # Parsing state: stacks of open elements.
    id_stack: list[int] = []
    summary_stack = [summary.root]
    next_post = 0
    original_size = len(xml_text.encode("utf-8"))

    def add_value(owner: int, summary_node, value: str) -> None:
        path = summary_node.path
        container = containers.get(path)
        if container is None:
            container = containers[path] = ValueContainer(path)
            summary_node.container_path = path
        pointer_owners.append(owner)
        pointer_paths.append(path)
        pointer_staged.append(container.add_value(value, owner))
        pointer_counts[owner] += 1

    for event in iter_events(xml_text):
        if isinstance(event, StartElement):
            node_id = len(parents)
            parent_id = id_stack[-1] if id_stack else -1
            parents.append(parent_id)
            tags.append(dictionary.intern(event.name))
            posts.append(-1)
            levels.append(len(id_stack))
            pointer_counts.append(0)
            if parent_id >= 0:
                content_owners.append(parent_id)
                content.append(node_id)
                statistics.record_child(
                    dictionary.name_of(tags[parent_id]))
            summary_node = summary_stack[-1].child(event.name)
            summary_node.extent.append(node_id)
            statistics.record_element(event.name, summary_node.path,
                                      len(id_stack) + 1)
            id_stack.append(node_id)
            summary_stack.append(summary_node)
            for attr_name, attr_value in event.attributes:
                dictionary.intern("@" + attr_name)
                attr_summary = summary_node.child("@" + attr_name)
                attr_summary.extent.append(node_id)
                add_value(node_id, attr_summary, attr_value)
                statistics.attribute_count += 1
        elif isinstance(event, EndElement):
            posts[id_stack.pop()] = next_post
            next_post += 1
            summary_stack.pop()
        elif isinstance(event, Characters):
            if not id_stack:
                continue
            parent_id = id_stack[-1]
            text_summary = summary_stack[-1].child(TEXT_STEP)
            text_summary.extent.append(parent_id)
            content_owners.append(parent_id)
            content.append(~pointer_counts[parent_id])
            add_value(parent_id, text_summary, event.text)
            statistics.text_count += 1

    _seal_containers(containers, configuration, default_string_codec)
    # Number the containers by sorted path, as the stored form does.
    # Sealing sorted each one by value: one gather per container maps
    # its staged indexes to final slots.
    paths = sorted(containers)
    rank = {path: i for i, path in enumerate(paths)}
    which = np.array([rank[path] for path in pointer_paths], dtype=np.int64)
    staged = np.asarray(pointer_staged, dtype=np.int64)
    slots = np.empty_like(staged)
    for index, path in enumerate(paths):
        mine = which == index
        slots[mine] = containers[path].sorted_position(staged[mine])
    pointer_offsets, by_owner = _grouped(pointer_owners, len(parents))
    content_offsets, content_by_owner = _grouped(content_owners,
                                                  len(parents))
    structure = StructureTree(
        parents, tags, posts, levels, paths, pointer_offsets,
        which[by_owner], slots[by_owner], content_offsets,
        np.asarray(content, dtype=np.int64)[content_by_owner])
    return CompressedRepository(
        dictionary=dictionary,
        structure=structure,
        summary=summary,
        containers=containers,
        statistics=statistics,
        original_size_bytes=original_size,
    )


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
