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

from repro.compression.registry import train_and_encode
from repro.storage.name_dictionary import NameDictionary
from repro.storage.repository import CompressedRepository
from repro.storage.statistics import DocumentStatistics
from repro.storage.structure import NodeRecord, StructureTree
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
    structure = StructureTree()
    summary = StructureSummary()
    statistics = DocumentStatistics()
    containers: dict[str, ValueContainer] = {}

    # Parsing state: stacks of open elements.
    id_stack: list[int] = []
    summary_stack = [summary.root]
    next_id = 0
    next_post = 0
    original_size = len(xml_text.encode("utf-8"))

    def container_for(summary_node) -> ValueContainer:
        path = summary_node.path
        container = containers.get(path)
        if container is None:
            container = ValueContainer(path)
            containers[path] = container
            summary_node.container_path = path
        return container

    for event in iter_events(xml_text):
        if isinstance(event, StartElement):
            node_id = next_id
            next_id += 1
            parent_id = id_stack[-1] if id_stack else -1
            tag_code = dictionary.intern(event.name)
            record = NodeRecord(node_id, tag_code, parent_id,
                                level=len(id_stack))
            structure.add(record)
            if parent_id >= 0:
                parent_record = structure.record(parent_id)
                parent_record.children.append(node_id)
                parent_record.content_sequence.append(("elem", node_id))
                statistics.record_child(
                    dictionary.name_of(parent_record.tag_code))
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
                container = container_for(attr_summary)
                record.value_pointers.append(
                    (container.path,
                     container.add_value(attr_value, node_id)))
                statistics.attribute_count += 1
        elif isinstance(event, EndElement):
            node_id = id_stack.pop()
            structure.record(node_id).post = next_post
            next_post += 1
            summary_stack.pop()
        elif isinstance(event, Characters):
            if not id_stack:
                continue
            parent_id = id_stack[-1]
            text_summary = summary_stack[-1].child(TEXT_STEP)
            text_summary.extent.append(parent_id)
            container = container_for(text_summary)
            parent_record = structure.record(parent_id)
            parent_record.content_sequence.append(
                ("text", len(parent_record.value_pointers)))
            parent_record.value_pointers.append(
                (container.path,
                 container.add_value(event.text, parent_id)))
            statistics.text_count += 1

    _seal_containers(containers, configuration, default_string_codec)
    # Sealing sorted the containers by value; remap the structure tree's
    # value pointers from staging order to final record slots.
    for record in structure:
        if record.value_pointers:
            record.value_pointers = [
                (path, containers[path].sorted_position(index))
                for path, index in record.value_pointers
            ]
    return CompressedRepository(
        dictionary=dictionary,
        structure=structure,
        summary=summary,
        containers=containers,
        statistics=statistics,
        original_size_bytes=original_size,
    )


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
