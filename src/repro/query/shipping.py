"""Shipping compressed query results — the paper's network argument.

§1 and the conclusion: "the possibility of obtaining compressed query
results allows to spare network bandwidth when sending these results
to a remote location" / "can be a huge advantage when query results
must be shipped around a network".

:func:`ship_result` frames a query's *raw* result sequence for the
sharded serving plane without decompressing it, and
:func:`receive_result` unpacks it in the coordinator.  Frame v3:

* ``XQRS`` magic, version byte ``3``;
* the run's :class:`~repro.query.context.EvaluationStats`: seven
  varints in ``EvaluationStats.FIELDS`` order, no names;
* the codec table: a count, then one 8-byte content digest per
  distinct codec (:func:`~repro.compression.serialization
  .codec_digest`) — the codec is named, its model never travels;
* the items: a count, then per item a kind byte and its body.  A
  still-compressed value is one *hole* ``(codec ref, bits, bytes)``;
  an element (constructed, or a repository node rebuilt by
  :meth:`~repro.query.engine.QueryEngine.materialize_node`) is the
  :func:`~repro.xmlio.writer.markup` walk — or, written by a row plan,
  the :class:`~repro.query.context.WrittenItem`'s parts, the same
  bytes: escaped markup strings with one hole in place of each unread
  :class:`~repro.query.context.LazyText`.  Attribute values, numbers,
  booleans and computed strings go plain.

A digest resolves against the codecs of the repositories alive in the
receiving process, so **frames decode only in a process holding the
repository** — the coordinator the workers were forked from, or the
worker's own process.  Holes decode at the end, in the receiver: the
worker decompresses nothing it ships.

Error contract: a frame that does not decode — truncated stream,
codec reference out of range, a digest no live repository holds, hole
bits that disagree with its bytes, garbage code bits, trailing junk —
raises :class:`~repro.errors.CorruptDataError`, never a low-level
``struct.error``/``KeyError``, and never returns a partially
materialized result.
"""

from __future__ import annotations

import weakref

from repro.compression.base import Codec, CompressedValue
from repro.compression.serialization import codec_digest
from repro.errors import CorruptDataError, XQueCError
from repro.query.context import (
    CompressedItem,
    EvaluationStats,
    LazyText,
    NodeItem,
    WrittenItem,
    _format_number,
)
from repro.storage.repository import live_repositories
from repro.util.bytestream import ByteReader, ByteWriter
from repro.xmlio.dom import Element
from repro.xmlio.escape import escape_text
from repro.xmlio.writer import markup

_KIND_COMPRESSED = 0
_KIND_TEXT = 1
_KIND_XML = 2
_KIND_NUMBER = 3
_KIND_BOOLEAN = 4

#: result-set frame header (:func:`ship_result`).
FRAME_MAGIC = b"XQRS"
FRAME_VERSION = 3
#: bytes of a codec digest in the codec table.
DIGEST_BYTES = 8

#: digest → a live codec with that model, weakly held: filled from
#: :func:`~repro.storage.repository.live_repositories` on a miss.
_CODECS: "weakref.WeakValueDictionary[bytes, Codec]" = \
    weakref.WeakValueDictionary()


class ReceivedResultSet:
    """A gathered result-set frame, decoded on the coordinator side.

    ``values`` mirror what :meth:`QueryResult.values
    <repro.query.engine.QueryResult.values>` returns on the worker
    (decoded strings, XML strings, floats, bools); ``stats`` carries
    the worker run's evaluation counters across the process boundary
    — decompressions the receiver does are not among them.

    The byte accounting quantifies the paper's network claim per
    result: ``wire_bytes`` is what actually crossed the pipe (values
    and text content still compressed), ``plain_bytes`` what shipping
    the decompressed XML would have cost, ``compressed_value_bytes``
    the code bytes of the frame's holes.
    """

    __slots__ = ("values", "stats", "wire_bytes", "plain_bytes",
                 "compressed_value_bytes")

    def __init__(self, values: list, stats: EvaluationStats,
                 wire_bytes: int, plain_bytes: int,
                 compressed_value_bytes: int):
        self.values = values
        self.stats = stats
        self.wire_bytes = wire_bytes
        self.plain_bytes = plain_bytes
        self.compressed_value_bytes = compressed_value_bytes

    @property
    def compression_ratio(self) -> float | None:
        """``wire_bytes / plain_bytes`` (< 1 means bandwidth spared)."""
        if self.plain_bytes <= 0:
            return None
        return self.wire_bytes / self.plain_bytes

    def to_xml(self) -> str:
        """Serialize exactly like :meth:`QueryResult.to_xml` — the
        parity contract the sharded oracle tests pin."""
        parts = []
        for value in self.values:
            if isinstance(value, float):
                parts.append(_format_number(value))
            else:
                parts.append(str(value))
        return "\n".join(parts)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __repr__(self) -> str:
        return (f"<ReceivedResultSet {len(self.values)} items, "
                f"{self.wire_bytes}B wire / {self.plain_bytes}B plain>")


class _FrameWriter:
    """The item section of one frame, plus the codecs its holes name."""

    def __init__(self):
        self.body = ByteWriter()
        self.digests: list[bytes] = []
        self._refs: dict[int, int] = {}

    def hole(self, compressed: CompressedValue, codec: Codec) -> None:
        ref = self._refs.get(id(codec))
        if ref is None:
            ref = self._refs[id(codec)] = len(self.digests)
            self.digests.append(codec_digest(codec))
        self.body.varint(ref).varint(compressed.bits).raw(compressed.data)

    def element(self, parts: list) -> None:
        """An element's markup ``parts`` — strings and texts, as
        :func:`~repro.xmlio.writer.markup` keeps them — as runs between
        holes: ``h``, a run, then ``h`` × (hole, run)."""
        runs: list[str] = []
        holes: list[LazyText] = []
        run: list[str] = []
        for part in parts:
            if part.__class__ is str:
                run.append(part)
            elif part.__class__ is LazyText and not part.read:
                runs.append("".join(run))
                holes.append(part)
                run = []
            else:
                run.append(escape_text(part.value))
        runs.append("".join(run))
        self.body.varint(len(holes)).string(runs[0])
        for text, following in zip(holes, runs[1:]):
            self.hole(*text.hole())
            self.body.string(following)


def ship_result(result) -> bytes:
    """Frame a :class:`~repro.query.engine.QueryResult` for transport
    without decompressing it (layout in the module docstring).  Unpack
    with :func:`receive_result` in a process holding the repository."""
    frame = _FrameWriter()
    body = frame.body
    items = result._raw_items
    body.varint(len(items))
    for item in items:
        if isinstance(item, CompressedItem):
            body.byte(_KIND_COMPRESSED)
            frame.hole(item.compressed, item.codec)
        elif isinstance(item, WrittenItem):
            body.byte(_KIND_XML)
            frame.element(item.parts)
        elif isinstance(item, (NodeItem, Element)):
            if isinstance(item, NodeItem):
                item = result._engine.materialize_node(
                    item.node_id, EvaluationStats(), doc=item.doc,
                    cache=result._cache)
            body.byte(_KIND_XML)
            frame.element(markup(item, keep_texts=True))
        elif isinstance(item, bool):
            body.byte(_KIND_BOOLEAN)
            body.byte(1 if item else 0)
        elif isinstance(item, float):
            body.byte(_KIND_NUMBER)
            body.float64(item)
        else:
            body.byte(_KIND_TEXT)
            body.string(str(item))
    writer = ByteWriter()
    writer.exact(FRAME_MAGIC)
    writer.byte(FRAME_VERSION)
    for name in EvaluationStats.FIELDS:
        writer.varint(max(int(getattr(result.stats, name)), 0))
    writer.varint(len(frame.digests))
    for digest in frame.digests:
        writer.exact(digest)
    writer.exact(body.getvalue())
    return writer.getvalue()


def receive_result(frame: bytes) -> ReceivedResultSet:
    """Unpack a :func:`ship_result` frame (stats + items + accounting),
    decoding every hole against the live repositories' codecs.

    All decoding happens into a local list that is returned only once
    the frame is fully consumed and validated — a corrupt tail can
    never hand the caller a partial result.  Low-level decode failures
    (``struct.error`` from a codec, ``KeyError`` from a code table,
    ``IndexError``/``UnicodeDecodeError`` from torn bytes) are
    normalized to :class:`~repro.errors.CorruptDataError`.
    """
    reader = ByteReader(frame)
    try:
        if reader.exact(len(FRAME_MAGIC)) != FRAME_MAGIC:
            raise CorruptDataError(
                "not a shipped result-set frame (bad magic)")
        version = reader.byte()
        if version != FRAME_VERSION:
            raise CorruptDataError(
                f"unsupported result-set frame version {version}")
        stats = EvaluationStats(**{name: reader.varint()
                                   for name in EvaluationStats.FIELDS})
        codecs = [_codec_of(reader.exact(DIGEST_BYTES))
                  for _ in range(reader.varint())]
        values, plain_bytes, hole_bytes = _read_items(reader, codecs)
    except XQueCError:
        raise
    except Exception as exc:  # noqa: BLE001 - normalize to the contract
        raise CorruptDataError(
            f"shipped result-set frame does not decode: {exc}") from exc
    if not reader.exhausted:
        raise CorruptDataError(
            "trailing bytes after shipped result-set frame")
    return ReceivedResultSet(values, stats, wire_bytes=len(frame),
                             plain_bytes=plain_bytes,
                             compressed_value_bytes=hole_bytes)


def _read_items(reader: ByteReader, codecs: list
                ) -> tuple[list, int, int]:
    """The item section: (values, plain bytes, hole code bytes)."""
    out: list = []
    plain_bytes = hole_bytes = 0

    def hole() -> str:
        nonlocal hole_bytes
        ref = reader.varint()
        if ref >= len(codecs):
            raise CorruptDataError(
                f"shipped hole references codec {ref} but the frame "
                f"names only {len(codecs)}")
        bits = reader.varint()
        data = reader.raw()
        if (bits + 7) // 8 != len(data):
            raise CorruptDataError(
                f"shipped hole of {bits} bits carries {len(data)} bytes")
        hole_bytes += len(data)
        return codecs[ref].decode(CompressedValue(data, bits))

    for _ in range(reader.varint()):
        kind = reader.byte()
        if kind == _KIND_COMPRESSED:
            value = hole()
            plain_bytes += len(value.encode("utf-8"))
        elif kind == _KIND_TEXT:
            value = reader.string()
            plain_bytes += len(value.encode("utf-8"))
        elif kind == _KIND_XML:
            holes = reader.varint()
            parts = [reader.string()]
            for _ in range(holes):
                parts.append(escape_text(hole()))
                parts.append(reader.string())
            value = "".join(parts)
            plain_bytes += len(value.encode("utf-8"))
        elif kind == _KIND_NUMBER:
            value = reader.float64()
            plain_bytes += len(_format_number(value))
        elif kind == _KIND_BOOLEAN:
            flag = reader.byte()
            if flag not in (0, 1):
                raise CorruptDataError(
                    f"shipped boolean must be 0/1, got {flag}")
            plain_bytes += 4 if flag else 5
            value = flag == 1
        else:
            raise CorruptDataError(f"unknown shipped item kind {kind}")
        out.append(value)
    return out, plain_bytes, hole_bytes


def _codec_of(digest: bytes) -> Codec:
    """The live codec whose model has ``digest``."""
    codec = _CODECS.get(digest)
    if codec is None:
        for repository in live_repositories():
            for container in repository.containers():
                _CODECS.setdefault(codec_digest(container.codec),
                                   container.codec)
        codec = _CODECS.get(digest)
    if codec is None:
        raise CorruptDataError(
            f"shipped codec {digest.hex()} is held by no repository "
            f"in this process")
    return codec
