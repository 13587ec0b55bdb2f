"""Binary serialization of codec source models.

Persisting a repository requires persisting each container's source
model: the Huffman/Hu-Tucker code lengths, the ALM dictionary and
symbol weights, the arithmetic counts, or the numeric codec
parameters.  Every serializer here is exact: the deserialized codec
reproduces bit-identical encodings (required for compressed-domain
equality across sessions).
"""

from __future__ import annotations

import hashlib
import weakref

from repro.compression.alm import ALMCodec
from repro.compression.arithmetic import ArithmeticCodec
from repro.compression.base import Codec
from repro.compression.blob import Bzip2Blob, ZlibBlob
from repro.compression.huffman import HuffmanCodec
from repro.compression.hutucker import HuTuckerCodec
from repro.compression.numeric import FloatCodec, IntegerCodec
from repro.errors import CorruptDataError, UnknownCodecError
from repro.util.bytestream import ByteReader, ByteWriter

_TYPE_HUFFMAN = 1
_TYPE_HUTUCKER = 2
_TYPE_ARITHMETIC = 3
_TYPE_ALM = 4
_TYPE_INTEGER = 5
_TYPE_FLOAT = 6
_TYPE_ZLIB = 7
_TYPE_BZIP2 = 8

#: :func:`codec_digest` per codec object, computed once.
_DIGESTS: "weakref.WeakKeyDictionary[Codec, bytes]" = \
    weakref.WeakKeyDictionary()


def serialize_codec(codec: Codec) -> bytes:
    """Serialize a codec's source model to bytes."""
    writer = ByteWriter()
    if isinstance(codec, HuffmanCodec):
        writer.byte(_TYPE_HUFFMAN)
        _write_length_table(writer, codec._lengths)
    elif isinstance(codec, HuTuckerCodec):
        writer.byte(_TYPE_HUTUCKER)
        lengths = {s: l for s, (_, l) in codec.codes.items()}
        writer.varint(len(codec._symbols))
        for symbol in codec._symbols:  # preserve alphabetical order
            writer.string(symbol)
            writer.varint(lengths[symbol])
    elif isinstance(codec, ArithmeticCodec):
        writer.byte(_TYPE_ARITHMETIC)
        symbols = codec._symbols[1:]  # EOS is implicit
        writer.varint(len(symbols))
        for i, symbol in enumerate(symbols, start=1):
            writer.string(symbol)
            writer.varint(codec._cum[i + 1] - codec._cum[i])
    elif isinstance(codec, ALMCodec):
        writer.byte(_TYPE_ALM)
        writer.varint(len(codec.tokens))
        for token in codec.tokens:
            writer.string(token)
        lengths = codec.code_lengths()
        writer.varint(len(lengths))
        for length in lengths:
            writer.varint(length)
    elif isinstance(codec, IntegerCodec):
        writer.byte(_TYPE_INTEGER)
        writer.signed(codec._minimum)
        writer.varint(codec._width)
    elif isinstance(codec, FloatCodec):
        writer.byte(_TYPE_FLOAT)
    elif isinstance(codec, ZlibBlob):
        writer.byte(_TYPE_ZLIB)
        writer.varint(codec._level)
    elif isinstance(codec, Bzip2Blob):
        writer.byte(_TYPE_BZIP2)
        writer.varint(codec._level)
    else:
        raise UnknownCodecError(
            f"cannot serialize codec type {type(codec).__name__}")
    return writer.getvalue()


def codec_digest(codec: Codec) -> bytes:
    """8-byte content digest of the codec's serialized source model.

    Equal models have equal digests in every process, so a digest
    names a codec across a process boundary without shipping its
    model (:mod:`repro.query.shipping`).  Computed once per codec.
    """
    digest = _DIGESTS.get(codec)
    if digest is None:
        digest = hashlib.blake2b(serialize_codec(codec),
                                 digest_size=8).digest()
        _DIGESTS[codec] = digest
    return digest


def deserialize_codec(data: bytes) -> Codec:
    """Rebuild a codec from :func:`serialize_codec` output."""
    reader = ByteReader(data)
    codec_type = reader.byte()
    if codec_type == _TYPE_HUFFMAN:
        return HuffmanCodec(_read_length_table(reader))
    if codec_type == _TYPE_HUTUCKER:
        count = reader.varint()
        symbols = []
        lengths = []
        for _ in range(count):
            symbols.append(reader.string())
            lengths.append(reader.varint())
        return HuTuckerCodec(symbols, lengths)
    if codec_type == _TYPE_ARITHMETIC:
        count = reader.varint()
        counts = {}
        for _ in range(count):
            symbol = reader.string()
            counts[symbol] = reader.varint()
        return ArithmeticCodec(counts)
    if codec_type == _TYPE_ALM:
        token_count = reader.varint()
        tokens = [reader.string() for _ in range(token_count)]
        length_count = reader.varint()
        lengths = [reader.varint() for _ in range(length_count)]
        return ALMCodec.from_code_lengths(tokens, lengths)
    if codec_type == _TYPE_INTEGER:
        minimum = reader.signed()
        width = reader.varint()
        return IntegerCodec(minimum, width)
    if codec_type == _TYPE_FLOAT:
        return FloatCodec()
    if codec_type == _TYPE_ZLIB:
        return ZlibBlob(reader.varint())
    if codec_type == _TYPE_BZIP2:
        return Bzip2Blob(reader.varint())
    raise CorruptDataError(f"unknown codec type tag {codec_type}")


def _write_length_table(writer: ByteWriter,
                        lengths: dict[str, int]) -> None:
    writer.varint(len(lengths))
    for symbol in sorted(lengths):
        writer.string(symbol)
        writer.varint(lengths[symbol])


def _read_length_table(reader: ByteReader) -> dict[str, int]:
    count = reader.varint()
    return {reader.string(): reader.varint() for _ in range(count)}
