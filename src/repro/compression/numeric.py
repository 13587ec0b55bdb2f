"""Order-preserving codecs for numeric containers.

XML values are text; a container whose values all parse as *canonical*
integers or floats (the loader checks this, in the spirit of XPRESS's type
inference) can be compressed far better than with string codecs, while
keeping equality and inequality in the compressed domain:

* :class:`IntegerCodec` — offset (minimum subtracted) fixed-width
  big-endian unsigned encoding; byte order equals numeric order.
* :class:`FloatCodec` — IEEE-754 bits with the standard total-order
  transform (flip the sign bit for positives, all bits for negatives).
"""

from __future__ import annotations

import math
import struct
from collections.abc import Iterable

from repro.compression.base import Codec, CompressionProperties, CompressedValue
from repro.errors import CodecDomainError, CorruptDataError


def is_canonical_int(text: str) -> bool:
    """True when ``text`` round-trips through ``int`` unchanged."""
    try:
        return str(int(text)) == text
    except ValueError:
        return False


def is_canonical_float(text: str) -> bool:
    """True when ``text`` round-trips through ``float`` unchanged.

    ``"-0.0"`` is excluded even though it round-trips: it *compares*
    equal to ``0.0`` while the total-order transform encodes it
    strictly below, so admitting it would break the bijection between
    comparison order and compressed order that ``ineq``/``eq`` rely
    on.  Containers holding ``"-0.0"`` stay string-typed instead.
    """
    try:
        value = float(text)
    except ValueError:
        return False
    if math.isnan(value) or math.isinf(value):
        return False
    if value == 0.0 and text != "0.0":
        return False
    return repr(value) == text


class IntegerCodec(Codec):
    """Offset fixed-width big-endian integer codec."""

    name = "integer"
    properties = CompressionProperties(eq=True, ineq=True, wild=False)
    # One int-from-bytes call per record: near-free.
    decompression_cost = 0.1

    def __init__(self, minimum: int, width: int):
        if width < 1:
            raise ValueError("width must be positive")
        self._minimum = minimum
        self._width = width
        self._maximum = minimum + (1 << (8 * width)) - 1

    @classmethod
    def train(cls, values: Iterable[str]) -> "IntegerCodec":
        numbers = []
        for value in values:
            if not is_canonical_int(value):
                raise CodecDomainError(
                    f"{value!r} is not a canonical integer")
            numbers.append(int(value))
        if not numbers:
            return cls(0, 1)
        minimum = min(numbers)
        span = max(numbers) - minimum
        width = max(1, (span.bit_length() + 7) // 8)
        return cls(minimum, width)

    @property
    def width(self) -> int:
        """Bytes per encoded value."""
        return self._width

    @property
    def minimum(self) -> int:
        """Offset subtracted before encoding (added back on decode)."""
        return self._minimum

    def encode(self, value: str) -> CompressedValue:
        if not is_canonical_int(value):
            raise CodecDomainError(f"{value!r} is not a canonical integer")
        number = int(value)
        if not self._minimum <= number <= self._maximum:
            raise CodecDomainError(
                f"{number} outside trained range "
                f"[{self._minimum}, {self._maximum}]")
        data = (number - self._minimum).to_bytes(self._width, "big")
        return CompressedValue(data, self._width * 8)

    def decode(self, compressed: CompressedValue) -> str:
        if compressed.bits != self._width * 8:
            raise CorruptDataError(
                f"expected {self._width * 8} bits, got {compressed.bits}")
        return str(int.from_bytes(compressed.data, "big") + self._minimum)

    def model_size_bytes(self) -> int:
        return 9  # 8-byte minimum + 1-byte width


class FloatCodec(Codec):
    """IEEE-754 total-order codec for canonical float text."""

    name = "float"
    properties = CompressionProperties(eq=True, ineq=True, wild=False)
    decompression_cost = 0.1

    _WIDTH = 8

    @classmethod
    def train(cls, values: Iterable[str]) -> "FloatCodec":
        for value in values:
            if not is_canonical_float(value):
                raise CodecDomainError(
                    f"{value!r} is not a canonical float")
        return cls()

    def encode(self, value: str) -> CompressedValue:
        if not is_canonical_float(value):
            raise CodecDomainError(f"{value!r} is not a canonical float")
        bits = struct.unpack(">Q", struct.pack(">d", float(value)))[0]
        if bits & (1 << 63):
            bits ^= 0xFFFFFFFFFFFFFFFF  # negative: flip everything
        else:
            bits ^= 1 << 63  # positive: flip sign bit only
        return CompressedValue(bits.to_bytes(8, "big"), 64)

    def decode(self, compressed: CompressedValue) -> str:
        if compressed.bits != 64:
            raise CorruptDataError(
                f"expected 64 bits, got {compressed.bits}")
        bits = int.from_bytes(compressed.data, "big")
        if bits & (1 << 63):
            bits ^= 1 << 63
        else:
            bits ^= 0xFFFFFFFFFFFFFFFF
        return repr(struct.unpack(">d", struct.pack(">Q", bits))[0])

    def model_size_bytes(self) -> int:
        return 0
