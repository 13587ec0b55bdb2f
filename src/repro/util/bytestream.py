"""Binary stream helpers: varints, length-prefixed strings, floats.

The building blocks of the repository's on-disk format
(:mod:`repro.storage.serialization`) and the codec source-model
serializers (:mod:`repro.compression.serialization`).
"""

from __future__ import annotations

import struct

from repro.errors import CorruptDataError
from repro.util.varint import decode_varint, encode_varint, encode_zigzag


class ByteWriter:
    """Appends typed fields to a byte buffer."""

    def __init__(self):
        self._buffer = bytearray()

    def varint(self, value: int) -> "ByteWriter":
        self._buffer.extend(encode_varint(value))
        return self

    def signed(self, value: int) -> "ByteWriter":
        """Zigzag-encoded signed integer."""
        self._buffer.extend(encode_zigzag(value))
        return self

    def string(self, text: str) -> "ByteWriter":
        data = text.encode("utf-8")
        self.varint(len(data))
        self._buffer.extend(data)
        return self

    def raw(self, data: bytes) -> "ByteWriter":
        self.varint(len(data))
        self._buffer.extend(data)
        return self

    def exact(self, data: bytes) -> "ByteWriter":
        """Bytes without a length prefix (caller knows the length)."""
        self._buffer.extend(data)
        return self

    def float64(self, value: float) -> "ByteWriter":
        self._buffer.extend(struct.pack(">d", value))
        return self

    def byte(self, value: int) -> "ByteWriter":
        self._buffer.append(value & 0xFF)
        return self

    def getvalue(self) -> bytes:
        return bytes(self._buffer)


class ByteReader:
    """Reads typed fields back from a byte buffer."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    @property
    def exhausted(self) -> bool:
        return self._pos >= len(self._data)

    @property
    def position(self) -> int:
        """Offset of the next unread byte."""
        return self._pos

    def varint(self) -> int:
        value, self._pos = decode_varint(self._data, self._pos)
        return value

    def signed(self) -> int:
        encoded = self.varint()
        if encoded & 1:
            return -(encoded >> 1)
        return encoded >> 1

    def string(self) -> str:
        return self.raw().decode("utf-8")

    def raw(self) -> bytes:
        return self.exact(self.varint())

    def exact(self, length: int) -> bytes:
        """Read exactly ``length`` bytes (no length prefix)."""
        end = self._pos + length
        if end > len(self._data):
            raise CorruptDataError("truncated byte stream")
        data = self._data[self._pos:end]
        self._pos = end
        return data

    def float64(self) -> float:
        end = self._pos + 8
        if end > len(self._data):
            raise CorruptDataError("truncated byte stream")
        value = struct.unpack_from(">d", self._data, self._pos)[0]
        self._pos = end
        return value

    def byte(self) -> int:
        if self._pos >= len(self._data):
            raise CorruptDataError("truncated byte stream")
        value = self._data[self._pos]
        self._pos += 1
        return value
