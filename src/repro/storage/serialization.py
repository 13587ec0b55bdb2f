"""Repository persistence: save/load over the paged file format.

The paper's prototype keeps its structures in Berkeley DB; ours
persists to a single :class:`~repro.storage.pages.PageFile` with one
checksummed stream per storage component and a catalog page (page 0)
mapping streams to their page ranges.  The format is fully binary —
varints, length-prefixed strings, serialized codec models — and loads
back into a repository whose compressed values are bit-identical (a
requirement for compressed-domain equality across sessions).

::

    save_repository(repo, "auction.xqc")
    repo = load_repository("auction.xqc")
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.compression.serialization import (
    deserialize_codec,
    serialize_codec,
)
from repro.compression.base import CompressedValue
from repro.errors import CorruptDataError, PageError
from repro.storage.containers import ContainerRecord, ValueContainer
from repro.storage.name_dictionary import NameDictionary
from repro.storage.pages import PageFile, PagedReader, PagedWriter, \
    PT_CATALOG
from repro.storage.repository import CompressedRepository
from repro.storage.statistics import DocumentStatistics
from repro.storage.structure import StructureTree, offsets_of
from repro.storage.summary import StructureSummary, SummaryNode
from repro.util.bytestream import ByteReader, ByteWriter
from repro.util.varint import decode_varints, encode_varints

_MAGIC = b"XQC1"
_STREAMS = ("meta", "dictionary", "codecs", "containers", "structure",
            "summary", "statistics")


def save_repository(repository: CompressedRepository,
                    path: str | Path) -> None:
    """Write the repository to ``path`` (overwrites)."""
    container_paths = repository.container_paths()
    path_index = {p: i for i, p in enumerate(container_paths)}
    codec_blobs, codec_of_container = _collect_codecs(repository,
                                                      container_paths)
    streams = {
        "meta": _write_meta(repository),
        "dictionary": _write_dictionary(repository.dictionary),
        "codecs": _write_codecs(codec_blobs),
        "containers": _write_containers(repository, container_paths,
                                        codec_of_container),
        "structure": _write_structure(repository.structure, path_index),
        "summary": _write_summary(repository.summary, path_index),
        "statistics": _write_statistics(repository.statistics),
    }
    with PageFile(path, create=True) as pagefile:
        catalog_page = pagefile.allocate()  # reserve page 0
        ranges: dict[str, tuple[int, int]] = {}
        for name in _STREAMS:
            writer = PagedWriter(pagefile)
            writer.write(streams[name])
            pages = writer.finish()
            first = pages[0] if pages else 0
            ranges[name] = (first, len(pages))
        catalog = ByteWriter()
        catalog.raw(_MAGIC)
        catalog.varint(len(_STREAMS))
        for name in _STREAMS:
            first, count = ranges[name]
            catalog.string(name)
            catalog.varint(first)
            catalog.varint(count)
        pagefile.write_page(catalog_page, catalog.getvalue(),
                            page_type=PT_CATALOG)


def load_repository(path: str | Path) -> CompressedRepository:
    """Read a repository previously written by :func:`save_repository`."""
    with PageFile(path) as pagefile:
        page_type, payload = pagefile.read_page(0)
        if page_type != PT_CATALOG:
            raise PageError("page 0 is not a catalog page")
        catalog = ByteReader(payload)
        if catalog.raw() != _MAGIC:
            raise PageError("not an XQueC repository file")
        ranges: dict[str, tuple[int, int]] = {}
        for _ in range(catalog.varint()):
            name = catalog.string()
            first = catalog.varint()
            count = catalog.varint()
            ranges[name] = (first, count)
        streams = {}
        for name in _STREAMS:
            if name not in ranges:
                raise PageError(f"stream {name!r} missing from catalog")
            first, count = ranges[name]
            pages = list(range(first, first + count))
            streams[name] = PagedReader(pagefile, pages).read_all()

    original_size = _read_meta(streams["meta"])
    dictionary = _read_dictionary(streams["dictionary"])
    codecs = _read_codecs(streams["codecs"])
    containers, container_paths = _read_containers(
        streams["containers"], codecs)
    structure = _read_structure(streams["structure"], containers)
    summary = _read_summary(streams["summary"], container_paths)
    statistics = _read_statistics(streams["statistics"])
    return CompressedRepository(
        dictionary=dictionary,
        structure=structure,
        summary=summary,
        containers=containers,
        statistics=statistics,
        original_size_bytes=original_size,
    )


# -- per-stream writers/readers ------------------------------------------------

def _write_meta(repository: CompressedRepository) -> bytes:
    return ByteWriter().varint(repository.original_size_bytes) \
        .getvalue()


def _read_meta(data: bytes) -> int:
    return ByteReader(data).varint()


def _write_dictionary(dictionary: NameDictionary) -> bytes:
    writer = ByteWriter()
    names = dictionary.names()
    writer.varint(len(names))
    for name in names:
        writer.string(name)
    return writer.getvalue()


def _read_dictionary(data: bytes) -> NameDictionary:
    reader = ByteReader(data)
    dictionary = NameDictionary()
    for _ in range(reader.varint()):
        dictionary.intern(reader.string())
    return dictionary


def _collect_codecs(repository: CompressedRepository,
                    container_paths: list[str]
                    ) -> tuple[list[bytes], dict[str, int]]:
    """Dedup shared source models: one blob per distinct codec."""
    blobs: list[bytes] = []
    index_by_id: dict[int, int] = {}
    codec_of_container: dict[str, int] = {}
    for path in container_paths:
        codec = repository.container(path).codec
        key = id(codec)
        if key not in index_by_id:
            index_by_id[key] = len(blobs)
            blobs.append(serialize_codec(codec))
        codec_of_container[path] = index_by_id[key]
    return blobs, codec_of_container


def _write_codecs(blobs: list[bytes]) -> bytes:
    writer = ByteWriter()
    writer.varint(len(blobs))
    for blob in blobs:
        writer.raw(blob)
    return writer.getvalue()


def _read_codecs(data: bytes) -> list:
    reader = ByteReader(data)
    return [deserialize_codec(reader.raw())
            for _ in range(reader.varint())]


def _write_containers(repository: CompressedRepository,
                      container_paths: list[str],
                      codec_of_container: dict[str, int]) -> bytes:
    writer = ByteWriter()
    writer.varint(len(container_paths))
    for path in container_paths:
        container = repository.container(path)
        writer.string(path)
        writer.string(container.value_type)
        writer.varint(codec_of_container[path])
        if container.is_blob:
            writer.byte(1)
            writer.raw(container._blob)  # sealed blob bytes
            assert container._blob_parents is not None
            writer.varint(len(container._blob_parents))
            for parent in container._blob_parents:
                writer.varint(parent)
        else:
            writer.byte(0)
            writer.varint(len(container))
            for record in container._records:
                # Payload length is implied by the bit count.
                writer.varint(record.compressed.bits)
                writer.exact(record.compressed.data)
                writer.varint(record.parent_id)
    return writer.getvalue()


def _read_containers(data: bytes, codecs: list
                     ) -> tuple[dict[str, ValueContainer], list[str]]:
    reader = ByteReader(data)
    containers: dict[str, ValueContainer] = {}
    paths: list[str] = []
    for _ in range(reader.varint()):
        path = reader.string()
        value_type = reader.string()
        codec = codecs[reader.varint()]
        paths.append(path)
        if reader.byte():
            blob = reader.raw()
            parents = [reader.varint()
                       for _ in range(reader.varint())]
            values = codec.decode_many(blob)
            containers[path] = ValueContainer.from_blob(
                path, value_type, codec, blob, values, parents)
        else:
            records = []
            for _ in range(reader.varint()):
                bits = reader.varint()
                payload = reader.exact((bits + 7) // 8)
                parent = reader.varint()
                records.append(ContainerRecord(
                    CompressedValue(payload, bits), parent))
            containers[path] = ValueContainer.from_records(
                path, value_type, codec, records)
    return containers, paths


def _write_structure(structure: StructureTree,
                     path_index: dict[str, int]) -> bytes:
    """Per node, varints: tag, parent delta (0 at the root), post,
    level, the value pointers as a count and (container, slot) pairs,
    the content as a count and (kind, ref) pairs — kind 0 a child id,
    1 a value-pointer index.  Laid out in bulk, then encoded at once."""
    count = len(structure)
    ids = np.arange(count, dtype=np.int64)
    pointer_counts = np.diff(structure.pointer_offsets)
    content_counts = np.diff(structure.content_offsets)
    lengths = 6 + 2 * (pointer_counts + content_counts)
    starts = 1 + np.cumsum(lengths) - lengths
    fields = np.empty(1 + int(lengths.sum()), dtype=np.int64)
    fields[0] = count
    parents = structure.parents
    for offset, column in enumerate((
            structure.tags, np.where(parents >= 0, ids - parents, 0),
            structure.posts, structure.levels, pointer_counts)):
        fields[starts + offset] = column
    renumber = np.array([path_index[path] for path in structure.paths],
                        dtype=np.int64)
    at = _pair_positions(starts + 5, structure.pointer_offsets)
    fields[at] = renumber[structure.pointer_containers]
    fields[at + 1] = structure.pointer_slots
    content_starts = starts + 5 + 2 * pointer_counts
    fields[content_starts] = content_counts
    at = _pair_positions(content_starts + 1, structure.content_offsets)
    content = structure.content
    fields[at] = content < 0
    fields[at + 1] = np.where(content >= 0, content, ~content)
    return encode_varints(fields)


def _read_structure(data: bytes,
                    containers: dict[str, ValueContainer]
                    ) -> StructureTree:
    """The inverse of :func:`_write_structure`; every reference is
    checked, so a corrupt stream raises :class:`PageError` rather than
    wrapping a negative index or pointing past a column."""
    try:
        fields = decode_varints(data)
    except CorruptDataError as exc:
        raise PageError(f"structure stream: {exc}") from None
    # Each record's length depends on its two counts: one pass finds
    # the record starts, the rest is gathered in bulk.
    values = fields.tolist()
    starts = []
    at = 1
    try:
        for _ in range(values[0]):
            starts.append(at)
            at += 5 + 2 * values[at + 4]
            at += 1 + 2 * values[at]
    except IndexError:
        raise PageError("structure stream truncated") from None
    if at != len(values):
        raise PageError("structure stream has trailing fields")
    count = len(starts)
    starts = np.array(starts, dtype=np.int64)
    ids = np.arange(count, dtype=np.int64)
    deltas = fields[starts + 1]
    parents = np.where(ids == 0, -1, ids - deltas)
    if ((deltas == 0) & (ids > 0)).any() or (parents[1:] < 0).any():
        raise PageError("structure parent delta points before the root")
    pointer_counts = fields[starts + 4]
    pointer_offsets = offsets_of(pointer_counts)
    at = _pair_positions(starts + 5, pointer_offsets)
    pointer_containers, slots = fields[at], fields[at + 1]
    lengths = np.array([len(c) for c in containers.values()],
                       dtype=np.int64)
    if (pointer_containers >= len(containers)).any():
        raise PageError("structure value pointer names no container")
    if (slots >= lengths[pointer_containers]).any():
        raise PageError("structure value pointer slot past its container")
    content_starts = starts + 5 + 2 * pointer_counts
    content_offsets = offsets_of(fields[content_starts])
    at = _pair_positions(content_starts + 1, content_offsets)
    kinds, refs = fields[at], fields[at + 1]
    owners = np.repeat(ids, np.diff(content_offsets))
    texts = kinds == 1
    if (kinds > 1).any() or \
            (refs[texts] >= pointer_counts[owners[texts]]).any():
        raise PageError("structure text reference past the node's values")
    children = refs[~texts]
    if (children >= count).any() or \
            (parents[children] != owners[~texts]).any() or \
            not np.array_equal(np.sort(children), ids[1:]):
        raise PageError("structure content names a node that is not a "
                        "child")
    return StructureTree(
        parents, fields[starts], fields[starts + 2], fields[starts + 3],
        list(containers), pointer_offsets, pointer_containers, slots,
        content_offsets, np.where(texts, ~refs, refs))


def _pair_positions(firsts: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Field position of each CSR entry stored as a pair: run *i*'s
    pairs start at ``firsts[i]``."""
    counts = np.diff(offsets)
    within = np.arange(offsets[-1]) - np.repeat(offsets[:-1], counts)
    return np.repeat(firsts, counts) + 2 * within


def _write_summary(summary: StructureSummary,
                   path_index: dict[str, int]) -> bytes:
    """The summary nodes in preorder, children by step, each followed
    by its child count; an explicit stack, so any depth saves."""
    writer = ByteWriter()
    stack = [summary.root]
    while stack:
        node = stack.pop()
        writer.string(node.step)
        writer.varint(len(node.extent))
        previous = 0
        for value in node.extent:
            writer.varint(value - previous)
            previous = value
        writer.signed(path_index[node.container_path]
                      if node.container_path is not None else -1)
        writer.varint(len(node.children))
        stack.extend(node.children[step]
                     for step in sorted(node.children, reverse=True))
    return writer.getvalue()


def _read_summary(data: bytes,
                  container_paths: list[str]) -> StructureSummary:
    """The inverse of :func:`_write_summary`, on an explicit stack of
    ``[node, children still to read]``; a container index outside
    ``container_paths`` raises :class:`PageError`."""
    reader = ByteReader(data)
    summary = StructureSummary()

    def read_node(node: SummaryNode) -> int:
        node.step = reader.string()
        extent = []
        previous = 0
        for _ in range(reader.varint()):
            previous += reader.varint()
            extent.append(previous)
        node.extent = extent
        container = reader.signed()
        if container >= len(container_paths):
            raise PageError("summary node names no container")
        if container >= 0:
            node.container_path = container_paths[container]
        return reader.varint()

    pending = [[summary.root, read_node(summary.root)]]
    while pending:
        top = pending[-1]
        if top[1] == 0:
            pending.pop()
            continue
        top[1] -= 1
        child = SummaryNode("", top[0])
        pending.append([child, read_node(child)])
        top[0].children[child.step] = child
    return summary


def _write_statistics(statistics: DocumentStatistics) -> bytes:
    writer = ByteWriter()
    writer.varint(statistics.element_count)
    writer.varint(statistics.attribute_count)
    writer.varint(statistics.text_count)
    writer.varint(statistics.max_depth)
    for counter in (statistics.tag_cardinality,
                    statistics.path_cardinality,
                    statistics._fanout_sum):
        writer.varint(len(counter))
        for key, value in sorted(counter.items()):
            writer.string(key)
            writer.varint(value)
    return writer.getvalue()


def _read_statistics(data: bytes) -> DocumentStatistics:
    reader = ByteReader(data)
    statistics = DocumentStatistics(
        element_count=reader.varint(),
        attribute_count=reader.varint(),
        text_count=reader.varint(),
        max_depth=reader.varint(),
    )
    for counter in (statistics.tag_cardinality,
                    statistics.path_cardinality,
                    statistics._fanout_sum):
        for _ in range(reader.varint()):
            key = reader.string()
            counter[key] = reader.varint()
    return statistics
