"""Table-driven decoding for prefix codes.

All three bit codecs (Huffman, Hu-Tucker, ALM) decode prefix-free
variable-length codes.  A bit-at-a-time loop costs microseconds per
output symbol in Python; :class:`PrefixDecoder` instead precomputes a
lookup table over the next ``k`` bits, emitting one symbol per table
hit — the classic canonical-Huffman fast path — and falls back to the
bit loop only for codewords longer than ``k``.
"""

from __future__ import annotations

from collections.abc import Hashable

from repro.compression.base import CompressedValue
from repro.errors import CorruptDataError

_TABLE_BITS = 12


class PrefixDecoder:
    """Decodes a prefix-free code given ``(code, length) -> symbol``."""

    def __init__(self, codes: dict[tuple[int, int], Hashable]):
        """``codes`` maps (code value, code length) to the symbol."""
        self._codes = codes
        self._max_length = max((l for _, l in codes), default=0)
        self._k = min(self._max_length, _TABLE_BITS) or 1
        # table[prefix] = (symbol, length) for codes of length <= k;
        # None marks "needs the slow path".
        size = 1 << self._k
        table: list[tuple[Hashable, int] | None] = [None] * size
        for (code, length), symbol in codes.items():
            if length > self._k:
                continue
            span = 1 << (self._k - length)
            table[code * span:(code + 1) * span] = [(symbol, length)] * span
        self._table = table

    def decode(self, compressed: CompressedValue) -> list:
        """Decode a full value into its symbol list."""
        bits = compressed.bits
        if bits == 0:
            return []
        top = len(compressed.data) * 8
        if bits > top:
            # Decoding on would read the zero padding as code words.
            raise CorruptDataError("truncated code sequence")
        # Pad by k zero bits once: the k-bit window at any position
        # below ``bits`` is then a plain right shift.
        k = self._k
        buffer = int.from_bytes(compressed.data, "big") << k
        mask = (1 << k) - 1
        table = self._table
        out: list = []
        append = out.append
        position = 0
        while position < bits:
            entry = table[(buffer >> (top - position)) & mask]
            if entry is None:
                # Slow path: extend bit by bit beyond k.
                entry = self._decode_long(buffer, top + k, position,
                                          bits - position)
            append(entry[0])
            position += entry[1]
        if position != bits:
            raise CorruptDataError("truncated code sequence")
        return out

    def _decode_long(self, buffer: int, total: int, position: int,
                     remaining: int):
        code = 0
        for length in range(1, min(self._max_length, remaining) + 1):
            bit = (buffer >> (total - position - length)) & 1
            code = (code << 1) | bit
            if length <= self._k:
                continue
            symbol = self._codes.get((code, length))
            if symbol is not None:
                return symbol, length
        raise CorruptDataError("invalid code sequence")
