"""Order-preserving arithmetic string encoding [Witten 1987].

One of the three order-preserving candidates §2.1 weighs (Arithmetic,
Hu-Tucker, ALM).  A static character model assigns each symbol a
sub-interval of [0, 1) *in alphabetical order*, so the binary expansion
of the final interval — the emitted code — preserves string order.  An
end-of-string symbol ordered *below* every character makes a proper
prefix sort before its extensions, matching string order.

Implementation: the classic integer renormalization coder (E1/E2/E3
conditions) over 32-bit state.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable

from repro.compression.base import Codec, CompressionProperties, CompressedValue
from repro.errors import CodecDomainError, CorruptDataError
from repro.util.bits import BitReader, BitWriter

_STATE_BITS = 32
_TOP = (1 << _STATE_BITS) - 1
_HALF = 1 << (_STATE_BITS - 1)
_QUARTER = 1 << (_STATE_BITS - 2)
_THREE_QUARTERS = _HALF + _QUARTER
_MAX_TOTAL = 1 << 16  # keeps intervals from collapsing

_EOS = ""  # sorts below every real character


class ArithmeticCodec(Codec):
    """Static-model order-preserving arithmetic codec."""

    name = "arithmetic"
    properties = CompressionProperties(eq=True, ineq=True, wild=False)
    # Interval arithmetic per character: the costliest decoder here.
    decompression_cost = 1.6

    def __init__(self, counts: dict[str, int]):
        # Scale counts so the total stays below _MAX_TOTAL.
        total = sum(counts.values()) + 1  # +1 for EOS
        if total >= _MAX_TOTAL:
            scale = (_MAX_TOTAL - 1) / total
            counts = {s: max(1, int(c * scale)) for s, c in counts.items()}
        self._symbols = [_EOS] + sorted(counts)
        self._cum = [0]
        for symbol in self._symbols:
            weight = 1 if symbol == _EOS else counts[symbol]
            self._cum.append(self._cum[-1] + weight)
        self._total = self._cum[-1]
        self._index = {s: i for i, s in enumerate(self._symbols)}

    @classmethod
    def train(cls, values: Iterable[str]) -> "ArithmeticCodec":
        counts: Counter = Counter()
        for value in values:
            counts.update(value)
        return cls(dict(counts))

    def encode(self, value: str) -> CompressedValue:
        index = self._index
        cum = self._cum
        total = self._total
        writer = BitWriter()
        low = 0
        high = _TOP
        pending = 0

        def emit(bit: int) -> None:
            nonlocal pending
            writer.write_bit(bit)
            opposite = bit ^ 1
            for _ in range(pending):
                writer.write_bit(opposite)
            pending = 0

        for symbol in list(value) + [_EOS]:
            i = index.get(symbol)
            if i is None:
                raise CodecDomainError(
                    f"character {symbol!r} absent from arithmetic model")
            span = high - low + 1
            high = low + span * cum[i + 1] // total - 1
            low = low + span * cum[i] // total
            while True:
                if high < _HALF:
                    emit(0)
                elif low >= _HALF:
                    emit(1)
                    low -= _HALF
                    high -= _HALF
                elif low >= _QUARTER and high < _THREE_QUARTERS:
                    pending += 1
                    low -= _QUARTER
                    high -= _QUARTER
                else:
                    break
                low <<= 1
                high = (high << 1) | 1
        # Final disambiguation: pick the quarter the interval covers.
        pending += 1
        if low < _QUARTER:
            emit(0)
        else:
            emit(1)
        return CompressedValue(writer.getvalue(),
                               writer.bit_length)

    def decode(self, compressed: CompressedValue) -> str:
        cum = self._cum
        total = self._total
        symbols = self._symbols
        reader = BitReader(compressed.data, compressed.bits)

        def next_bit() -> int:
            # Exhausted input decodes as zeros (the coder emits the
            # shortest distinguishing prefix).
            return reader.read_bit() if reader.remaining else 0

        value = 0
        for _ in range(_STATE_BITS):
            value = (value << 1) | next_bit()
        low = 0
        high = _TOP
        out: list[str] = []
        # A decoded string can never have more characters than input bits
        # could possibly describe; guard against corrupt loops.
        for _ in range(compressed.bits + _STATE_BITS + 1):
            span = high - low + 1
            scaled = ((value - low + 1) * total - 1) // span
            # Find the symbol whose cumulative slot contains ``scaled``.
            lo, hi = 0, len(symbols) - 1
            while lo < hi:
                mid = (lo + hi) // 2
                if cum[mid + 1] <= scaled:
                    lo = mid + 1
                else:
                    hi = mid
            symbol = symbols[lo]
            high = low + span * cum[lo + 1] // total - 1
            low = low + span * cum[lo] // total
            if symbol == _EOS:
                return "".join(out)
            out.append(symbol)
            while True:
                if high < _HALF:
                    pass
                elif low >= _HALF:
                    value -= _HALF
                    low -= _HALF
                    high -= _HALF
                elif low >= _QUARTER and high < _THREE_QUARTERS:
                    value -= _QUARTER
                    low -= _QUARTER
                    high -= _QUARTER
                else:
                    break
                low <<= 1
                high = (high << 1) | 1
                value = (value << 1) | next_bit()
        raise CorruptDataError("arithmetic stream never reached EOS")

    def model_size_bytes(self) -> int:
        # (UTF-8 symbol, 2-byte scaled count) per entry.
        return sum(len(s.encode("utf-8")) + 2 for s in self._symbols)
