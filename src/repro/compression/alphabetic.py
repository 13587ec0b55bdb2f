"""Alphabetical (order-preserving) prefix-code construction helpers.

Two constructions are provided:

* :func:`weight_balanced_code_lengths` — Mehlhorn-style recursive
  bisection.  Near-optimal (within ~2 bits/symbol of entropy), O(n log n),
  used for ALM's potentially large symbol alphabets.
* :func:`assign_alphabetic_codes` — turn per-symbol code lengths (whose
  Kraft sum is <= 1 and which are achievable by an alphabetic tree, as both
  constructions here guarantee) into actual left-to-right codes.

Both keep the defining property of alphabetical codes: for symbols
``a < b`` (in the given order), ``code(a) < code(b)`` as bit strings.
"""

from __future__ import annotations

import bisect
from collections.abc import Sequence
from itertools import accumulate, repeat


def weight_balanced_code_lengths(weights: Sequence[float]) -> list[int]:
    """Code length per symbol via recursive weight-balanced bisection.

    ``weights[i]`` is the (positive) weight of the i-th symbol in
    alphabetical order.  Returns one code length per symbol.
    """
    n = len(weights)
    if n == 0:
        return []
    if n == 1:
        return [1]
    prefix = list(accumulate(map(max, weights, repeat(1e-12)), initial=0.0))
    lengths = [0] * n

    # Explicit stack of (lo, hi, depth) half-open symbol ranges.
    stack = [(0, n, 0)]
    while stack:
        lo, hi, depth = stack.pop()
        if hi - lo == 1:
            lengths[lo] = max(depth, 1)
            continue
        target = (prefix[lo] + prefix[hi]) / 2.0
        split = bisect.bisect_left(prefix, target, lo + 1, hi)
        if split <= lo:
            split = lo + 1
        elif split >= hi:
            split = hi - 1
        # Choose the better of the two candidate splits around the target.
        if split > lo + 1:
            if abs(prefix[split - 1] - target) < abs(prefix[split] - target):
                split -= 1
        stack.append((lo, split, depth + 1))
        stack.append((split, hi, depth + 1))
    return lengths


def assign_alphabetic_codes(
        lengths: Sequence[int]) -> list[tuple[int, int]]:
    """Assign increasing codes to symbols given alphabetic code lengths.

    Returns ``(code value, code length)`` per symbol, in symbol order.
    The construction walks a virtual binary tree left to right: the code
    for each next symbol is the previous code + 1 at the previous length,
    then shifted/truncated to the new length — the canonical alphabetic
    assignment (it preserves order and is prefix-free whenever ``lengths``
    comes from an actual alphabetic tree).
    """
    codes: list[tuple[int, int]] = []
    code = 0
    previous_length = 0
    for length in lengths:
        if previous_length:
            code += 1
            if length > previous_length:
                code <<= (length - previous_length)
            elif length < previous_length:
                code >>= (previous_length - length)
        codes.append((code, length))
        previous_length = length
    return codes
