"""Variable-length integer encoding (LEB128-style) and size helpers.

The storage accounting uses varint/delta sizes throughout: node IDs are
dense and document-ordered, so parents, children and summary extents
are small deltas — the compact representation any serious on-disk
format (including the paper's Berkeley DB records) would use.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CorruptDataError


def varint_size(value: int) -> int:
    """Bytes a varint encoding of ``value`` occupies (>= 1)."""
    if value < 0:
        value = (-value << 1) | 1  # zigzag for the size estimate
    size = 1
    while value >= 0x80:
        value >>= 7
        size += 1
    return size


def encode_varint(value: int) -> bytes:
    """Encode a non-negative integer (LEB128)."""
    if value < 0:
        raise ValueError("varint encodes non-negative integers")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode a varint; returns (value, next offset)."""
    value = 0
    shift = 0
    i = offset
    while True:
        if i >= len(data):
            raise CorruptDataError("truncated varint")
        byte = data[i]
        i += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, i
        shift += 7
        if shift > 63:
            raise CorruptDataError("varint too long")


def varint_sizes(values: np.ndarray) -> np.ndarray:
    """Per-element :func:`varint_size` of non-negative integers."""
    return 1 + sum((values >= 1 << shift).astype(np.int64)
                   for shift in range(7, 63, 7))


def encode_varints(values: np.ndarray) -> bytes:
    """The concatenated :func:`encode_varint` of each non-negative
    int64, encoded in bulk."""
    sizes = varint_sizes(values)
    starts = np.cumsum(sizes) - sizes
    byte = np.arange(int(sizes.sum())) - np.repeat(starts, sizes)
    out = (np.repeat(values, sizes) >> (7 * byte)) & 0x7F
    out[byte < np.repeat(sizes, sizes) - 1] |= 0x80
    return out.astype(np.uint8).tobytes()


def decode_varints(data: bytes) -> np.ndarray:
    """Every varint of ``data``, as int64, decoded in bulk; raises
    :class:`CorruptDataError` on a truncated or over-long one."""
    raw = np.frombuffer(data, dtype=np.uint8)
    if not len(raw):
        return np.empty(0, dtype=np.int64)
    ends = np.flatnonzero(raw < 0x80)
    if not len(ends) or ends[-1] != len(raw) - 1:
        raise CorruptDataError("truncated varint")
    starts = np.concatenate(([0], ends[:-1] + 1))
    sizes = ends - starts + 1
    if sizes.max() > 9:
        raise CorruptDataError("varint too long")
    shifts = 7 * (np.arange(len(raw)) - np.repeat(starts, sizes))
    parts = (raw & 0x7F).astype(np.int64) << shifts
    return np.bitwise_or.reduceat(parts, starts)


def encode_zigzag(value: int) -> bytes:
    """Encode a signed integer via zigzag + varint."""
    return encode_varint(value << 1 if value >= 0
                         else ((-value) << 1) | 1)


def decode_zigzag(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode a zigzag varint; returns (value, next offset)."""
    encoded, offset = decode_varint(data, offset)
    if encoded & 1:
        return -(encoded >> 1), offset
    return encoded >> 1, offset


def delta_sizes(sorted_values: list[int]) -> int:
    """Total varint bytes for delta-encoding an ascending id list."""
    total = 0
    previous = 0
    for value in sorted_values:
        total += varint_size(value - previous)
        previous = value
    return total
