"""Classical character-level Huffman coding [Huffman 1952].

XQueC's order-agnostic choice (§2.1): fixed codewords make compressed
equality comparison possible, and because the code is prefix-free the code
of a string prefix is a bit-prefix of the code of the full string — so
prefix-match (``wild``) predicates also run in the compressed domain.
Inequality does not: Huffman codeword order follows frequency, not
alphabet order.

Canonical codes are used so that the source model serializes as just
(symbol, code length) pairs.
"""

from __future__ import annotations

import heapq
from collections import Counter
from collections.abc import Iterable

from repro.compression.base import Codec, CompressionProperties, CompressedValue
from repro.errors import CodecDomainError
from repro.obs import runtime
from repro.util.bits import BitWriter


def code_lengths_from_frequencies(freqs: dict[str, int]) -> dict[str, int]:
    """Huffman code length per symbol via the classic heap construction."""
    if not freqs:
        return {}
    if len(freqs) == 1:
        return {next(iter(freqs)): 1}
    # Heap entries: (weight, tiebreak, symbols-in-subtree)
    heap: list[tuple[int, int, list[str]]] = [
        (weight, i, [symbol])
        for i, (symbol, weight) in enumerate(sorted(freqs.items()))
    ]
    heapq.heapify(heap)
    lengths: dict[str, int] = dict.fromkeys(freqs, 0)
    tiebreak = len(heap)
    while len(heap) > 1:
        w1, _, syms1 = heapq.heappop(heap)
        w2, _, syms2 = heapq.heappop(heap)
        for symbol in syms1 + syms2:
            lengths[symbol] += 1
        heapq.heappush(heap, (w1 + w2, tiebreak, syms1 + syms2))
        tiebreak += 1
    return lengths


def canonical_codes(lengths: dict[str, int]) -> dict[str, tuple[int, int]]:
    """Assign canonical codes: symbol -> (code value, code length).

    Symbols are ordered by (length, symbol); codes are consecutive
    integers within each length class — the standard canonical scheme.
    """
    ordered = sorted(lengths.items(), key=lambda kv: (kv[1], kv[0]))
    codes: dict[str, tuple[int, int]] = {}
    code = 0
    previous_length = 0
    for symbol, length in ordered:
        code <<= (length - previous_length)
        codes[symbol] = (code, length)
        code += 1
        previous_length = length
    return codes


class HuffmanCodec(Codec):
    """Character-level canonical Huffman codec."""

    name = "huffman"
    properties = CompressionProperties(eq=True, ineq=False, wild=True)
    # One table lookup per output character (``fastdecode.PrefixDecoder``):
    # the unit the other codecs' costs are relative to.
    decompression_cost = 1.0

    def __init__(self, lengths: dict[str, int]):
        from repro.compression.fastdecode import PrefixDecoder
        self._lengths = lengths
        self._codes = canonical_codes(lengths)
        self._decoder = PrefixDecoder({
            (code, length): symbol
            for symbol, (code, length) in self._codes.items()
        })

    @classmethod
    def train(cls, values: Iterable[str]) -> "HuffmanCodec":
        freqs: Counter = Counter()
        for value in values:
            freqs.update(value)
        return cls(code_lengths_from_frequencies(dict(freqs)))

    @classmethod
    def from_frequencies(cls, freqs: dict[str, int]) -> "HuffmanCodec":
        """Build directly from a character-frequency table."""
        return cls(code_lengths_from_frequencies(freqs))

    @property
    def codes(self) -> dict[str, tuple[int, int]]:
        """symbol -> (code value, code length); exposed for inspection."""
        return dict(self._codes)

    def encode(self, value: str) -> CompressedValue:
        writer = BitWriter()
        codes = self._codes
        for ch in value:
            entry = codes.get(ch)
            if entry is None:
                raise CodecDomainError(
                    f"character {ch!r} absent from Huffman source model")
            writer.write_bits(entry[0], entry[1])
        compressed = CompressedValue(writer.getvalue(),
                                     writer.bit_length)
        if runtime.ACTIVE is not None:
            runtime.record_codec("encode", self.name,
                                 compressed.nbytes, len(value))
        return compressed

    def decode(self, compressed: CompressedValue) -> str:
        value = "".join(self._decoder.decode(compressed))
        if runtime.ACTIVE is not None:
            runtime.record_codec("decode", self.name,
                                 compressed.nbytes, len(value))
        return value

    def model_size_bytes(self) -> int:
        # Canonical model: one (UTF-8 symbol, 1-byte length) pair each.
        return sum(len(s.encode("utf-8")) + 1 for s in self._lengths)
