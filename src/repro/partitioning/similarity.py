"""The container similarity matrix ``F`` (paper §3.2).

``F[i, j]`` is a normalized similarity in [0, 1] between containers
``ct_i`` and ``ct_j``, built from data statistics: the overlap of their
value sets and the cosine similarity of their character distributions —
the two signals the paper names (number of overlapping values, character
distribution within the container entries).
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sequence

import numpy as np

#: weight of value-overlap vs character-distribution similarity.
_OVERLAP_WEIGHT = 0.4


def char_cosine(counts_a: Counter, counts_b: Counter) -> float:
    """Cosine similarity of two character-count vectors."""
    if not counts_a or not counts_b:
        return 0.0
    dot = sum(n * counts_b.get(ch, 0) for ch, n in counts_a.items())
    norm_a = math.sqrt(sum(n * n for n in counts_a.values()))
    norm_b = math.sqrt(sum(n * n for n in counts_b.values()))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return dot / (norm_a * norm_b)


def value_overlap(values_a: set[str], values_b: set[str]) -> float:
    """Jaccard overlap of the two value sets."""
    if not values_a or not values_b:
        return 0.0
    intersection = len(values_a & values_b)
    union = len(values_a | values_b)
    return intersection / union


def pair_similarity(values_a: Sequence[str],
                    values_b: Sequence[str]) -> float:
    """Similarity of two containers' value collections, in [0, 1]."""
    counts_a: Counter = Counter()
    for v in values_a:
        counts_a.update(v)
    counts_b: Counter = Counter()
    for v in values_b:
        counts_b.update(v)
    cosine = char_cosine(counts_a, counts_b)
    overlap = value_overlap(set(values_a), set(values_b))
    return _OVERLAP_WEIGHT * overlap + (1.0 - _OVERLAP_WEIGHT) * cosine


def similarity_matrix(value_lists: Sequence[Sequence[str]]) -> np.ndarray:
    """Symmetric ``F`` with unit diagonal over n containers."""
    n = len(value_lists)
    matrix = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            similarity = pair_similarity(value_lists[i], value_lists[j])
            matrix[i, j] = similarity
            matrix[j, i] = similarity
    return matrix

