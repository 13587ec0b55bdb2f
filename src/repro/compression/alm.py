"""ALM dictionary-based order-preserving compression [Antoshenkov 1997].

The codec the paper selects for XQueC's order-preserving compression
(§2.1): dictionary-based, so decompression emits whole tokens at a time
(faster than character-level Huffman), and order-preserving, so
*inequality* predicates run in the compressed domain — the capability
XGrind/XPRESS lack.

The construction follows the paper's Figure 2.  A dictionary of tokens
(all single characters seen in training, plus frequent multi-character
substrings) is arranged in a trie by the prefix relation.  Because a
token like ``the`` may be extended by another token like ``there``, naive
per-token codes would break order (the *prefix property* problem §2.1
describes).  ALM's fix: each token owns several *partitioning intervals*
of the suffix space — the gaps around the zones of its extensions — and
each interval gets its own symbol:

    token   symbol  interval
    the     c       [the aa, the rd]     (before ``there``'s zone)
    there   d       [there, there...]
    the     e       [the rf, the zz]     (after ``there``'s zone)

Greedy longest-token segmentation then assigns every suffix to exactly
one interval symbol, the global interval order is the suffix order, and
an alphabetical prefix code over the symbols yields bit strings whose
order equals string order.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections import Counter
from collections.abc import Iterable, Sequence
from itertools import chain

import numpy as np

from repro.compression.alphabetic import (
    assign_alphabetic_codes,
    weight_balanced_code_lengths,
)
from repro.compression.base import Codec, CompressionProperties, CompressedValue
from repro.compression.fastdecode import PrefixDecoder
from repro.errors import CodecDomainError, CorruptDataError
from repro.util.text import common_prefix

#: default cap on multi-character dictionary tokens.
DEFAULT_MAX_TOKENS = 768
#: n-gram lengths considered when mining tokens from training data.
_NGRAM_LENGTHS = (2, 3, 4, 6, 8, 12, 16)
#: cap on the number of training characters scanned for n-grams.
_TRAINING_CHAR_BUDGET = 400_000
#: groups the longest-match expression nests before it goes flat (the
#: expression compiler recurses per group).
_MAX_NESTING = 48
#: a value's words: runs of non-spaces, each with the space that ends it.
_WORDS = re.compile("[^ ]+ ?").findall


def select_tokens(values: Iterable[str],
                  max_tokens: int = DEFAULT_MAX_TOKENS) -> list[str]:
    """Mine substrings worth a dictionary entry.

    Two candidate families: words (with their trailing space — the
    dominant repeated unit of natural-language containers) and short
    character n-grams (record-like containers: dates, codes, names).
    Candidates are scored by the characters they save,
    ``(len - 1) * occurrences``, and the best ``max_tokens`` win.
    """
    scanned: list[str] = []
    budget = _TRAINING_CHAR_BUDGET
    for value in values:
        if budget <= 0:
            break
        budget -= len(value)
        scanned.append(value)
    word_counts = Counter(chain.from_iterable(map(_WORDS, scanned)))
    scored = [((len(tok) - 1) * cnt, tok)
              for tok, cnt in word_counts.items()
              if cnt >= 2 and len(tok) > 1]
    # Overlapping n-gram occurrences double-count the same characters;
    # discount them so whole-word units win the budget on prose while
    # record-like containers (dates, ids) still get their fragments.
    # At most ``len(word_counts)`` n-grams are dropped as words, so the
    # best ``max_tokens`` survivors sit among that many more candidates.
    scored += [((len(tok) - 1) * cnt * 0.1, tok)
               for tok, cnt in _repeated_ngrams(
                   scanned, max_tokens + len(word_counts))
               if tok not in word_counts]
    scored.sort(key=lambda pair: (-pair[0], pair[1]))
    return [tok for _, tok in scored[:max_tokens]]


def _repeated_ngrams(values: Sequence[str],
                     keep: int) -> list[tuple[str, int]]:
    """``(n-gram, occurrences)`` for every n-gram of a length in
    ``_NGRAM_LENGTHS`` seen at least twice inside ``values``, cut to the
    ``keep`` best by ``(len - 1) * occurrences`` (ties at the cut stay),
    in no particular order.

    The windows of ``_NGRAM_LENGTHS[-1]`` characters starting at every
    position (a pad after each value keeps n-grams inside it) are put
    in lexicographic order by one-key sorts, most significant first:
    each keys a window by the rank of its prefix so far and the next
    characters, packed in one word.  An n-gram's occurrences are then
    the run of adjacent windows sharing their first ``n`` characters.
    """
    text = "".join(values)
    if not text:
        return []
    width = _NGRAM_LENGTHS[-1]
    points = np.frombuffer(text.encode("utf-32-le", "surrogatepass"),
                           dtype="<u4")
    # Characters become 1-based ranks (0 pads), read from a table over
    # the code points present.
    present = np.zeros(int(points.max()) + 1, dtype=bool)
    present[points] = True
    bits = int(present.sum()).bit_length()
    lengths = np.fromiter(map(len, values), dtype=np.int64,
                          count=len(values)) + 1
    owner = np.repeat(np.arange(len(values)), lengths)
    size = len(owner)  # one window per character and per pad
    left = (np.cumsum(lengths) - 1)[owner] - np.arange(size)
    padded = np.zeros(size + width, dtype=np.uint64)
    padded[np.flatnonzero(left)] = np.cumsum(present,
                                             dtype=np.uint64)[points]
    words, first, ranks = [], 0, None
    while first < width:
        count = min(width - first,
                    (64 - (ranks is not None) * size.bit_length()) // bits)
        word = np.zeros(size, dtype=np.uint64)
        for j in range(first, first + count):
            word <<= np.uint64(bits)
            word |= padded[j:j + size]
        key = word if ranks is None else \
            ranks << np.uint64(count * bits) | word
        order = np.argsort(key)
        ordered = key[order]
        ranks = np.empty(size, dtype=np.uint64)
        ranks[order] = np.concatenate(
            ([0], np.cumsum(ordered[1:] != ordered[:-1], dtype=np.uint64)))
        words.append((first, count, word))
        first += count
    # Row k: where the sorted windows' first _NGRAM_LENGTHS[k] characters
    # change (True at both ends); a run of two or more starts at True, False.
    sizes = np.array(_NGRAM_LENGTHS)
    change = np.ones((len(sizes), size + 1), dtype=bool)
    changed = np.zeros(size - 1, dtype=bool)
    for first, count, word in words:
        word = word[order]
        for k, n in enumerate(_NGRAM_LENGTHS):
            if first < n <= first + count:
                prefix = word >> np.uint64((first + count - n) * bits)
                change[k, 1:-1] = changed | (prefix[1:] != prefix[:-1])
        changed |= word[1:] != word[:-1]
    starts = np.flatnonzero(change[:, :-1] & ~change[:, 1:])
    counts = np.flatnonzero(change[:, 1:] & ~change[:, :-1]) + 1 - starts
    at, sizes = order[starts % size], sizes[starts // size]
    repeated = left[at] >= sizes  # no pad inside
    at, counts, sizes = at[repeated], counts[repeated], sizes[repeated]
    at -= owner[at]  # window -> text offset
    if 0 < keep < len(at):
        scores = (sizes - 1) * counts * 0.1
        best = scores >= np.partition(scores, -keep)[-keep]
        at, counts, sizes = at[best], counts[best], sizes[best]
    return [(text[i:i + n], count) for i, n, count
            in zip(at.tolist(), sizes.tolist(), counts.tolist())]


def _matcher(tokens: Sequence[str]) -> str:
    """Regular expression matching the longest of the sorted ``tokens``
    at a position: the token trie, one nested group per trie node with
    an optional (greedy) tail where the node is itself a token.  Any
    other single character matches last, so a scan never skips one.
    """
    def branch(lo: int, hi: int, depth: int, nesting: int) -> str:
        # tokens[lo:hi] agree on their first ``depth + 1`` characters.
        if nesting == _MAX_NESTING:  # the rest flat, longest first
            return "(?:%s)" % "|".join(re.escape(token[depth:])
                                       for token in tokens[lo:hi][::-1])
        first = tokens[lo]
        end = len(common_prefix(first, tokens[hi - 1]))
        head, optional = re.escape(first[depth:end]), ""
        if len(first) == end:  # itself a token: what follows may not
            if lo + 1 == hi:
                return head
            lo, optional = lo + 1, "?"
        tail = "|".join(branches(lo, hi, end, nesting + 1))
        return f"{head}(?:{tail}){optional}"

    def branches(lo: int, hi: int, depth: int, nesting: int) -> list[str]:
        found = []
        while lo < hi:
            end = lo + 1
            while end < hi and tokens[end][depth] == tokens[lo][depth]:
                end += 1
            found.append(branch(lo, end, depth, nesting))
            lo = end
        return found

    return "|".join(branches(0, len(tokens), 0, 0) + ["."])


class ALMCodec(Codec):
    """Order-preserving dictionary codec with interval symbols."""

    name = "alm"
    properties = CompressionProperties(eq=True, ineq=True, wild=False)
    # Token-at-a-time decoding: the fastest string decoder here (the
    # property §2.1 cites for choosing ALM in a database setting).
    decompression_cost = 0.5

    def __init__(self, tokens: Sequence[str],
                 symbol_weights: Sequence[float] | None = None):
        """``tokens`` must include every character any value may contain."""
        self._build_symbols(tokens)
        weights = (list(symbol_weights) if symbol_weights is not None
                   else [1.0] * len(self._symbols))
        if len(weights) != len(self._symbols):
            raise ValueError("symbol weights must align with symbols")
        self._weigh(weights)

    # -- construction -----------------------------------------------------

    def _build_symbols(self, tokens: Iterable[str]) -> None:
        """Global, ordered list of interval symbols.

        ``_symbols[i]`` is the token text of symbol ``i``.  Sorted order
        puts every token right before the tokens it prefixes, so one
        pass with a stack of the currently open tokens interleaves each
        token's gap intervals with its extensions' zones — the
        leaf-interval order described in the module docstring.
        """
        self._tokens = sorted(set(tokens))
        if self._tokens and not self._tokens[0]:
            raise ValueError("empty token not allowed")
        symbols: list[str] = []
        gaps: dict[str, list[int]] = {}  # token -> symbol id per gap
        extensions: dict[str, list[str]] = {}
        open_tokens: list[str] = []
        for token in chain(self._tokens, [None]):  # None closes all
            while open_tokens and not (
                    token and token.startswith(open_tokens[-1])):
                open_tokens.pop()
                if open_tokens:  # a closed zone ends its parent's gap
                    gaps[open_tokens[-1]].append(len(symbols))
                    symbols.append(open_tokens[-1])
            if token:
                if open_tokens:
                    extensions.setdefault(open_tokens[-1],
                                          []).append(token)
                gaps[token] = [len(symbols)]
                symbols.append(token)
                open_tokens.append(token)
        self._symbols = symbols
        # A token nothing extends has one symbol; the others pick a gap
        # by where the suffix falls among their (sorted) extensions.
        self._plain = {token: ids[0] for token, ids in gaps.items()
                       if token not in extensions}
        self._gapped = {token: (found, gaps[token])
                        for token, found in extensions.items()}
        self._longest = max(map(len, self._tokens), default=0)
        self._scan = None  # compiled by the first ``_segments``

    def _weigh(self, weights: Sequence[float]) -> None:
        """Give each symbol its code from the symbols' weights."""
        self._set_codes(assign_alphabetic_codes(
            weight_balanced_code_lengths(weights)))

    def _set_codes(self, codes: list[tuple[int, int]]) -> None:
        self._codes = codes
        self._decoder = None  # built by the first ``decode``

    @classmethod
    def from_code_lengths(cls, tokens: Sequence[str],
                          lengths: Sequence[int]) -> "ALMCodec":
        """Rebuild a codec from its serialized model: the token list
        plus one alphabetic code length per interval symbol.

        Bypasses the weight-balancing step entirely, so the code
        assignment — and therefore every encoding — is bit-identical
        to the codec the lengths were read from.  Lengths no alphabetic
        tree has raise :class:`CorruptDataError`.
        """
        codec = cls.__new__(cls)
        codec._build_symbols(tokens)
        count = len(codec._symbols)
        if len(lengths) != count:
            raise CorruptDataError(
                f"expected {count} code lengths, got {len(lengths)}")
        if not all(1 <= length <= count for length in lengths):
            raise CorruptDataError("ALM code length out of range")
        # Every code fits its length, and a shorter code after a longer
        # one starts exactly where that one's subtree ended.
        codes = assign_alphabetic_codes(lengths)
        if any(code >> length for code, length in codes) or any(
                n < m and after << m - n != before + 1
                for (before, m), (after, n) in zip(codes, codes[1:])):
            raise CorruptDataError(
                "ALM code lengths are not an alphabetic code")
        codec._set_codes(codes)
        return codec

    def code_lengths(self) -> list[int]:
        """Per-symbol code lengths, in symbol order (the model)."""
        return [length for _, length in self._codes]

    @classmethod
    def train(cls, values: Iterable[str],
              max_tokens: int = DEFAULT_MAX_TOKENS) -> "ALMCodec":
        return cls._fit(list(values), max_tokens)[0]

    @classmethod
    def train_and_encode(cls, values: Iterable[str]):
        values = list(values)
        codec, segmented = cls._fit(values, DEFAULT_MAX_TOKENS)
        packed = {value: codec._pack(ids)
                  for value, ids in segmented.items()}
        return codec, [packed[value] for value in values]

    @classmethod
    def _fit(cls, values: list[str], max_tokens: int):
        """The trained codec and the symbol ids of each distinct value."""
        text = "".join(values)
        # A dictionary entry must earn back its source-model bytes:
        # scale the dictionary with the training volume.
        budget = min(max_tokens, max(8, len(text) // 24))
        codec = cls.__new__(cls)
        codec._build_symbols(
            set(text).union(select_tokens(values, budget)) or [chr(0)])
        # Second pass: count symbol occurrences to weight the code.
        occurrences = Counter(values)
        segments = codec._segments(occurrences)
        weights = np.bincount(
            np.fromiter(chain.from_iterable(segments), dtype=np.int64),
            weights=np.repeat(list(occurrences.values()),
                              list(map(len, segments))),
            minlength=len(codec._symbols)) + 1.0
        codec._weigh(weights.tolist())
        return codec, dict(zip(occurrences, segments))

    # -- encoding ---------------------------------------------------------

    def _segments(self, values: Iterable[str]) -> list[list[int]]:
        """The interval-symbol id sequence of each of ``values``.

        Greedy longest-token segmentation; a token with extensions owns
        one symbol per gap between them, and because it was the longest
        match the suffix extends none of them — so the gap is the
        suffix's rank among the sorted extensions.
        """
        if self._scan is None:
            self._scan = re.compile(_matcher(self._tokens),
                                    re.DOTALL).findall
        scan, plain = self._scan, self._plain.get
        gapped, longest = self._gapped, self._longest
        segments = []
        for value in values:
            ids = []
            start = 0
            for token in scan(value):
                symbol = plain(token)
                if symbol is None:
                    try:
                        extensions, gaps = gapped[token]
                    except KeyError:
                        raise CodecDomainError(
                            f"character {token!r} absent from ALM "
                            "dictionary") from None
                    symbol = gaps[bisect_left(extensions,
                                              value[start:start + longest])]
                ids.append(symbol)
                start += len(token)
            segments.append(ids)
        return segments

    def _pack(self, ids: Sequence[int]) -> CompressedValue:
        """Concatenate the codewords of ``ids`` in one integer."""
        codes = self._codes
        packed = bits = 0
        for symbol in ids:
            code, length = codes[symbol]
            packed = packed << length | code
            bits += length
        return CompressedValue(
            (packed << -bits % 8).to_bytes((bits + 7) // 8, "big"), bits)

    def encode(self, value: str) -> CompressedValue:
        return self._pack(self._segments([value])[0])

    def decode(self, compressed: CompressedValue) -> str:
        if self._decoder is None:
            self._decoder = PrefixDecoder(dict(zip(self._codes,
                                                   self._symbols)))
        return "".join(self._decoder.decode(compressed))

    # -- introspection ----------------------------------------------------

    @property
    def tokens(self) -> list[str]:
        """The dictionary tokens, sorted."""
        return list(self._tokens)

    @property
    def symbol_count(self) -> int:
        """Number of interval symbols (>= number of tokens)."""
        return len(self._symbols)

    def model_size_bytes(self) -> int:
        """Serialized dictionary size.

        Tokens are stored sorted and *front-coded* (shared-prefix
        length + suffix — the standard dictionary layout); interval
        symbols reference tokens by id and add one code-length byte
        each.
        """
        return len(self._symbols) + sum(  # + one code-length byte each
            2 + len(token[len(common_prefix(previous, token)):].encode())
            for previous, token in zip([""] + self._tokens, self._tokens))
