"""Bit-level I/O used by the entropy coders.

The coders in :mod:`repro.compression` (Huffman, Hu-Tucker, arithmetic, ALM)
all produce variable-length bit strings.  Two small classes provide the
plumbing:

* :class:`BitWriter` accumulates individual bits and flushes them into a
  ``bytes`` payload, recording the exact bit length so that trailing padding
  never decodes as data.
* :class:`BitReader` replays such a payload bit by bit.

Compressed container records additionally need an *order-preserving* byte
representation of a bit string (so that ``memcmp`` order equals bit-string
order even between strings of different lengths).  ``bits_to_bytes`` with
``pad_bit=0`` provides that for prefix-free order-preserving codes: padding
with zeros never reorders two codewords because neither is a prefix of the
other.
"""

from __future__ import annotations

from repro.errors import CorruptDataError


class BitWriter:
    """Accumulates bits most-significant-first into a byte buffer."""

    def __init__(self):
        self._buffer = bytearray()
        self._current = 0
        self._filled = 0  # bits already placed in ``_current``
        self._length = 0  # total bits written

    def __len__(self) -> int:
        return self._length

    def write_bit(self, bit: int) -> None:
        """Append a single bit (0 or 1)."""
        self._current = (self._current << 1) | (bit & 1)
        self._filled += 1
        self._length += 1
        if self._filled == 8:
            self._buffer.append(self._current)
            self._current = 0
            self._filled = 0

    def write_bits(self, value: int, width: int) -> None:
        """Append ``width`` bits of ``value``, most significant first."""
        if width <= 0:
            return
        pending = self._current << width | value & (1 << width) - 1
        self._length += width
        whole, self._filled = divmod(self._filled + width, 8)
        if whole:
            self._buffer += (pending >> self._filled).to_bytes(whole, "big")
            pending &= (1 << self._filled) - 1
        self._current = pending

    def write_bitstring(self, bits: str) -> None:
        """Append a string of ``'0'``/``'1'`` characters."""
        for ch in bits:
            self.write_bit(1 if ch == "1" else 0)

    def getvalue(self, pad_bit: int = 0) -> bytes:
        """Return the accumulated bits as bytes, padding the tail.

        ``pad_bit=0`` keeps byte-wise lexicographic order consistent with
        bit-string order for prefix-free codes.
        """
        out = bytes(self._buffer)
        if self._filled:
            tail = self._current << (8 - self._filled)
            if pad_bit:
                tail |= (1 << (8 - self._filled)) - 1
            out += bytes([tail])
        return out

    @property
    def bit_length(self) -> int:
        """Total number of bits written so far."""
        return self._length


class BitReader:
    """Replays a byte payload bit by bit, most-significant-first."""

    def __init__(self, data: bytes, bit_length: int | None = None):
        self._data = data
        self._bit_length = (len(data) * 8 if bit_length is None
                            else bit_length)
        if self._bit_length > len(data) * 8:
            raise CorruptDataError(
                f"declared bit length {self._bit_length} exceeds payload "
                f"of {len(data)} bytes")
        self._pos = 0

    def __len__(self) -> int:
        return self._bit_length

    @property
    def remaining(self) -> int:
        """Number of unread bits."""
        return self._bit_length - self._pos

    def read_bit(self) -> int:
        """Read the next bit; raises :class:`CorruptDataError` at the end."""
        if self._pos >= self._bit_length:
            raise CorruptDataError("bit stream exhausted")
        byte = self._data[self._pos >> 3]
        bit = (byte >> (7 - (self._pos & 7))) & 1
        self._pos += 1
        return bit

    def read_bits(self, width: int) -> int:
        """Read ``width`` bits as one unsigned integer."""
        value = 0
        for _ in range(width):
            value = (value << 1) | self.read_bit()
        return value

    def peek_bit(self) -> int | None:
        """Return the next bit without consuming it, or ``None`` at EOF."""
        if self._pos >= self._bit_length:
            return None
        byte = self._data[self._pos >> 3]
        return (byte >> (7 - (self._pos & 7))) & 1


def bits_to_bytes(bits: str, pad_bit: int = 0) -> bytes:
    """Pack a ``'0'``/``'1'`` string into bytes (MSB first)."""
    writer = BitWriter()
    writer.write_bitstring(bits)
    return writer.getvalue(pad_bit=pad_bit)


def bytes_to_bits(data: bytes, bit_length: int | None = None) -> str:
    """Unpack bytes into a ``'0'``/``'1'`` string of ``bit_length`` bits."""
    if bit_length is None:
        bit_length = len(data) * 8
    reader = BitReader(data, bit_length)
    return "".join(str(reader.read_bit()) for _ in range(bit_length))
