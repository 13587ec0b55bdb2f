"""Blob codecs: whole-chunk general-purpose compression.

XMill's strategy — and the paper's default for containers no query ever
touches (§3.3 suggests bzip2 for those): coalesce all of a container's
values into one chunk and compress the chunk.  Excellent compression, but
*no* compressed-domain predicates and a full-container decompression on
any access, which is exactly the trade-off the cost model weighs.

:class:`ZlibBlob` and :class:`Bzip2Blob` wrap the stdlib compressors.
Both also satisfy the per-value :class:`~repro.compression.base.Codec`
interface (each value compressed standalone) so the cost-model search can
treat them uniformly, but containers detect ``is_blob`` and store one
chunk instead.
"""

from __future__ import annotations

import bz2
import zlib
from collections.abc import Iterable

from repro.compression.base import Codec, CompressionProperties, CompressedValue
from repro.errors import CorruptDataError

#: separator for coalescing values into one chunk; XML character data
#: can never contain it.
_SEPARATOR = b"\x00"


class BlobCodec(Codec):
    """Base class for chunk compressors; subclasses bind the algorithm."""

    properties = CompressionProperties(eq=False, ineq=False, wild=False)
    #: blob codecs force whole-chunk decompression on any record access.
    decompression_cost = 4.0
    is_blob = True

    @classmethod
    def train(cls, values: Iterable[str]) -> "BlobCodec":
        return cls()

    @classmethod
    def train_and_encode(cls, values: Iterable[str]):
        return cls(), None  # containers store one chunk: encode_many

    # -- chunk interface (used by containers and the XMill baseline) ------

    def compress_chunk(self, data: bytes) -> bytes:
        """Compress one byte chunk."""
        raise NotImplementedError

    def decompress_chunk(self, data: bytes) -> bytes:
        """Decompress one byte chunk."""
        raise NotImplementedError

    def encode_many(self, values: Iterable[str]) -> bytes:
        """Coalesce values (count header + NUL-separated) and compress."""
        parts = [v.encode("utf-8") for v in values]
        chunk = _SEPARATOR.join([str(len(parts)).encode("ascii"), *parts])
        return self.compress_chunk(chunk)

    def decode_many(self, blob: bytes) -> list[str]:
        """Inverse of :meth:`encode_many`."""
        chunk = self.decompress_chunk(blob)
        header, _, body = chunk.partition(_SEPARATOR)
        try:
            count = int(header)
        except ValueError as exc:
            raise CorruptDataError("bad blob count header") from exc
        if count == 0:
            return []
        parts = body.split(_SEPARATOR)
        if len(parts) != count:
            raise CorruptDataError(
                f"blob holds {len(parts)} values, header says {count}")
        return [part.decode("utf-8") for part in parts]

    # -- per-value interface (for uniform cost-model treatment) -----------

    def encode(self, value: str) -> CompressedValue:
        data = self.compress_chunk(value.encode("utf-8"))
        return CompressedValue(data, len(data) * 8)

    def decode(self, compressed: CompressedValue) -> str:
        try:
            value = self.decompress_chunk(
                compressed.data).decode("utf-8")
        except (OSError, ValueError) as exc:
            raise CorruptDataError(f"bad blob payload: {exc}") from exc
        return value

    def model_size_bytes(self) -> int:
        return 0


class ZlibBlob(BlobCodec):
    """DEFLATE ("gzip") chunks — XMill's default back-end."""

    name = "zlib"

    def __init__(self, level: int = 6):
        self._level = level

    def compress_chunk(self, data: bytes) -> bytes:
        return zlib.compress(data, self._level)

    def decompress_chunk(self, data: bytes) -> bytes:
        try:
            return zlib.decompress(data)
        except zlib.error as exc:
            raise CorruptDataError(f"bad zlib payload: {exc}") from exc


class Bzip2Blob(BlobCodec):
    """bzip2 chunks — the paper's suggested default for unqueried data."""

    name = "bzip2"
    decompression_cost = 6.0

    def __init__(self, level: int = 9):
        self._level = level

    def compress_chunk(self, data: bytes) -> bytes:
        return bz2.compress(data, self._level)

    def decompress_chunk(self, data: bytes) -> bytes:
        try:
            return bz2.decompress(data)
        except (OSError, ValueError) as exc:
            raise CorruptDataError(f"bad bzip2 payload: {exc}") from exc
