"""Tests for the similarity matrix F."""

from collections import Counter

import numpy as np

from repro.partitioning.similarity import (
    char_cosine,
    pair_similarity,
    similarity_matrix,
    value_overlap,
)
from repro.xmark.text_source import TextSource


class TestCharCosine:
    def test_identical(self):
        counts = Counter("hello world")
        assert abs(char_cosine(counts, counts) - 1.0) < 1e-12

    def test_disjoint_alphabets(self):
        assert char_cosine(Counter("aaa"), Counter("zzz")) == 0.0

    def test_empty(self):
        assert char_cosine(Counter(), Counter("a")) == 0.0


class TestValueOverlap:
    def test_identical_sets(self):
        assert value_overlap({"x", "y"}, {"x", "y"}) == 1.0

    def test_half_overlap(self):
        assert value_overlap({"x", "y"}, {"y", "z"}) == 1 / 3

    def test_empty(self):
        assert value_overlap(set(), {"x"}) == 0.0


class TestPairSimilarity:
    def test_range(self):
        s = pair_similarity(["abc", "abd"], ["xbc", "abc"])
        assert 0.0 <= s <= 1.0

    def test_similar_beats_dissimilar(self):
        prose_a = ["the quick brown fox jumps"]
        prose_b = ["the lazy dog sleeps deeply"]
        dates = ["1999-01-02", "2003-12-31"]
        assert pair_similarity(prose_a, prose_b) > \
            pair_similarity(prose_a, dates)


class TestSimilarityMatrix:
    def test_shape_and_diagonal(self):
        F = similarity_matrix([["a"], ["b"], ["c"]])
        assert F.shape == (3, 3)
        assert np.allclose(np.diag(F), 1.0)

    def test_symmetric(self):
        F = similarity_matrix([["abc"], ["abd"], ["xyz"]])
        assert np.allclose(F, F.T)

    def test_values_in_unit_interval(self):
        F = similarity_matrix([["hello"], ["world"], ["12345"]])
        assert (F >= 0.0).all() and (F <= 1.0 + 1e-12).all()

    def test_text_families_separate(self):
        """Three prose containers and two date containers: F is high
        within each family and low across them."""
        source = TextSource(seed=21)
        prose = [[source.sentence() for _ in range(60)] for _ in range(3)]
        dates = [[source.date() for _ in range(80)] for _ in range(2)]
        F = similarity_matrix(prose + dates)
        assert min(F[0, 1], F[0, 2], F[1, 2], F[3, 4]) >= 0.55
        assert F[:3, 3:].max() < 0.55
