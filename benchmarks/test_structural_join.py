"""Tests for the structural-join extension (3-valued IDs)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.loader import load_document
from repro.xmark.generator import generate_xmark
from structural_join import (
    navigation_pairs,
    structural_join,
    structural_pairs,
)

DOC = """
<site>
  <regions>
    <europe><item id="i0"><name>a</name></item>
            <item id="i1"><name>b</name></item></europe>
    <asia><item id="i2"><name>c</name></item></asia>
  </regions>
  <people><person id="p0"><name>x</name></person></people>
</site>
"""


@pytest.fixture(scope="module")
def repo():
    return load_document(DOC)


def extent(repo, *steps):
    nodes = repo.summary.resolve(list(steps))
    return sorted({i for n in nodes for i in n.extent})


class TestStructuralJoin:
    def test_descendant_pairs(self, repo):
        regions = extent(repo, ("descendant", "europe"))
        names = extent(repo, ("descendant", "name"))
        pairs = structural_pairs(repo.structure, regions, names)
        # europe contains the two item names (not asia's, not person's).
        assert len(pairs) == 2

    def test_child_axis(self, repo):
        items = extent(repo, ("descendant", "item"))
        names = extent(repo, ("descendant", "name"))
        pairs = structural_pairs(repo.structure, items, names,
                                 axis="child")
        assert len(pairs) == 3
        for ancestor, descendant in pairs:
            assert repo.structure.parent_of(descendant) == ancestor

    def test_child_axis_excludes_grandchildren(self, repo):
        regions = extent(repo, ("descendant", "regions"))
        names = extent(repo, ("descendant", "name"))
        assert structural_pairs(repo.structure, regions, names,
                                axis="child") == []

    def test_matches_navigation_baseline(self, repo):
        regions = extent(repo, ("child", "site"), ("child", "*"))
        names = extent(repo, ("descendant", "name"))
        assert sorted(structural_pairs(repo.structure, regions,
                                       names)) == \
            sorted(navigation_pairs(repo.structure, regions, names))

    def test_empty_inputs(self, repo):
        assert structural_pairs(repo.structure, [], [1, 2]) == []
        assert structural_pairs(repo.structure, [0], []) == []

    def test_output_in_descendant_document_order(self, repo):
        site = [0]
        names = extent(repo, ("descendant", "name"))
        pairs = structural_pairs(repo.structure, site, names)
        descendants = [d for _, d in pairs]
        assert descendants == sorted(descendants)

    def test_id_arrays_in(self, repo):
        persons = np.array(extent(repo, ("descendant", "person")),
                           dtype=np.int64)
        ancestors, descendants = structural_join(
            repo.structure, np.array([0], dtype=np.int64), persons)
        assert ancestors.tolist() == [0] * len(persons)
        assert descendants.tolist() == persons.tolist()

    def test_bad_axis(self, repo):
        empty = np.empty(0, dtype=np.int64)
        with pytest.raises(ValueError):
            structural_join(repo.structure, empty, empty,
                            axis="following")


@settings(deadline=None, max_examples=15)
@given(st.integers(0, 10_000))
def test_structural_equals_navigation_on_xmark(seed):
    """Property: stack-tree join == parent-chain walking, any extents."""
    import random
    repo = load_document(generate_xmark(0.003, seed=7))
    rng = random.Random(seed)
    n = len(repo.structure)
    ancestors = rng.sample(range(n), min(25, n))
    descendants = rng.sample(range(n), min(40, n))
    for axis in ("descendant", "child"):
        assert sorted(structural_pairs(repo.structure, ancestors,
                                       descendants, axis)) == \
            sorted(navigation_pairs(repo.structure, ancestors,
                                    descendants, axis))
