"""Hu-Tucker optimal alphabetical codes [Hu & Tucker 1971].

The paper weighed Hu-Tucker against ALM as the order-preserving codec
(§2.1) and cites [19] for ALM outperforming it on strings; we implement
both so the trade-off can be measured.  Hu-Tucker yields, per *character*,
the optimal prefix-free code among those preserving alphabetical order, so
``eq``, ``ineq`` and prefix-``wild`` predicates all run in the compressed
domain (character alignment keeps string prefixes as bit prefixes).

The classic three-phase algorithm is implemented directly:

1. *combination* — repeatedly merge the minimum-weight *compatible* pair
   (no original leaf strictly between the two nodes);
2. *level assignment* — depth of each original leaf in the phase-1 tree;
3. *reconstruction* — rebuild an alphabetic tree from the leaf levels with
   the standard stack scan, which the Hu-Tucker theorem guarantees to
   succeed.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence

from repro.compression.alphabetic import assign_alphabetic_codes
from repro.compression.base import Codec, CompressionProperties, CompressedValue
from repro.errors import CodecDomainError
from repro.obs import runtime
from repro.util.bits import BitWriter


def hu_tucker_code_lengths(weights: Sequence[float]) -> list[int]:
    """Optimal alphabetic code length per symbol (in symbol order)."""
    n = len(weights)
    if n == 0:
        return []
    if n == 1:
        return [1]

    # Phase 1: combination.  Each work-list entry is
    # [weight, is_leaf, node_id]; ``children`` records merges.
    work: list[list] = [[w, True, i] for i, w in enumerate(weights)]
    children: dict[int, tuple[int, int]] = {}
    next_id = n
    while len(work) > 1:
        best: tuple[float, int, int] | None = None
        for i in range(len(work) - 1):
            # Candidates j: everything up to and including the first leaf
            # strictly right of i (beyond it the pair is incompatible).
            j = i + 1
            while True:
                weight_sum = work[i][0] + work[j][0]
                if best is None or weight_sum < best[0]:
                    best = (weight_sum, i, j)
                if work[j][1] or j == len(work) - 1:
                    break
                j += 1
        assert best is not None
        _, i, j = best
        merged = [work[i][0] + work[j][0], False, next_id]
        children[next_id] = (work[i][2], work[j][2])
        next_id += 1
        work[i] = merged
        del work[j]

    # Phase 2: leaf levels in the phase-1 tree.
    levels = [0] * n
    stack = [(work[0][2], 0)]
    while stack:
        node_id, depth = stack.pop()
        if node_id < n:
            levels[node_id] = depth
        else:
            left, right = children[node_id]
            stack.append((left, depth + 1))
            stack.append((right, depth + 1))
    return levels


def _check_reconstruction(levels: Sequence[int]) -> None:
    """Verify the levels admit an alphabetic tree (sanity check).

    The stack reconstruction: repeatedly merge the leftmost adjacent pair
    of equal, maximal levels.  The Hu-Tucker theorem guarantees success;
    the check guards our implementation.
    """
    nodes = list(levels)
    while len(nodes) > 1:
        max_level = max(nodes)
        for i in range(len(nodes) - 1):
            if nodes[i] == max_level and nodes[i + 1] == max_level:
                nodes[i:i + 2] = [max_level - 1]
                break
        else:
            raise AssertionError(
                f"leaf levels {list(levels)!r} do not form an "
                f"alphabetic tree")


class HuTuckerCodec(Codec):
    """Character-level optimal alphabetical code."""

    name = "hutucker"
    properties = CompressionProperties(eq=True, ineq=True, wild=True)
    # Same table-driven decode loop as Huffman.
    decompression_cost = 1.0

    def __init__(self, symbols: Sequence[str], lengths: Sequence[int]):
        if len(symbols) != len(lengths):
            raise ValueError("symbols and lengths must align")
        _check_reconstruction(lengths) if symbols else None
        from repro.compression.fastdecode import PrefixDecoder
        self._symbols = list(symbols)
        codes = assign_alphabetic_codes(lengths)
        self._codes = dict(zip(self._symbols, codes))
        self._decoder = PrefixDecoder({
            (code, length): symbol
            for symbol, (code, length) in self._codes.items()
        })

    @classmethod
    def train(cls, values: Iterable[str]) -> "HuTuckerCodec":
        freqs: Counter = Counter()
        for value in values:
            freqs.update(value)
        symbols = sorted(freqs)
        weights = [float(freqs[s]) for s in symbols]
        return cls(symbols, hu_tucker_code_lengths(weights))

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
                    f"character {ch!r} absent from Hu-Tucker source model")
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
        return sum(len(s.encode("utf-8")) + 1 for s in self._symbols)
