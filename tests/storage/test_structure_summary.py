"""Direct tests for StructureTree and StructureSummary internals."""

import numpy as np
import pytest

from repro.storage.structure import StructureTree
from repro.storage.summary import StructureSummary


def build_tree():
    """a -> (b -> d), c  with post/level numbers filled in; ``a`` holds
    one attribute value and a text after ``b``."""
    return StructureTree(
        parents=[-1, 0, 1, 0], tags=[0, 1, 2, 3], posts=[3, 1, 0, 2],
        levels=[0, 1, 2, 1], paths=["/a/#text", "/a/@x"],
        pointer_offsets=[0, 2, 2, 2, 2], pointer_containers=[1, 0],
        pointer_slots=[0, 0], content_offsets=[0, 3, 4, 4, 4],
        content=[1, ~1, 3, 2])


def chain(count):
    """``count`` nodes, each the only child of the one before."""
    ids = np.arange(count)
    return StructureTree(
        parents=ids - 1, tags=np.zeros(count), posts=ids[::-1],
        levels=ids, paths=[], pointer_offsets=np.zeros(count + 1),
        pointer_containers=[], pointer_slots=[],
        content_offsets=np.minimum(ids.tolist() + [count], count - 1),
        content=ids[1:])


class TestStructureTree:
    def test_parent_navigation(self):
        tree = build_tree()
        assert tree.parent_of(2) == 1
        assert tree.parent_of(0) is None

    def test_children_filtered_by_tag(self):
        tree = build_tree()
        assert tree.children_of(0) == [1, 3]
        assert tree.children_of(0, tag_code=3) == [3]

    def test_descendants_interval(self):
        tree = build_tree()
        assert tree.descendants_of(0) == [1, 2, 3]
        assert tree.descendants_of(1) == [2]
        assert tree.descendants_of(3) == []

    def test_descendants_filtered_by_tag(self):
        tree = build_tree()
        assert tree.descendants_of(0, tag_code=2) == [2]
        assert tree.descendants_of(0, tag_code=0) == []

    @pytest.mark.parametrize("document", ["oracle", "xmark"])
    def test_descendant_range_matches_post_order_scan(self, document):
        """The O(1) range is the node-by-node scan it replaced, on
        every node, with and without a tag filter."""
        import random

        from repro.storage.loader import load_document
        from repro.verify.documents import generate_entities, render_xml
        from repro.xmark.generator import generate_xmark
        xml = render_xml(generate_entities(random.Random(3), 12)) \
            if document == "oracle" else generate_xmark(0.002, seed=42)
        tree = load_document(xml).structure
        posts, tags = tree.posts.tolist(), tree.tags.tolist()

        def scanned(node_id, tag_code=None):
            found = []
            for candidate in range(node_id + 1, len(tree)):
                if posts[candidate] > posts[node_id]:
                    break
                if tag_code in (None, tags[candidate]):
                    found.append(candidate)
            return found

        for node_id, tag_code in enumerate(tags):
            assert tree.descendants_of(node_id) == scanned(node_id)
            assert tree.descendants_of(node_id, tag_code) \
                == scanned(node_id, tag_code)

    def test_subtree_texts_in_document_order(self):
        tree = build_tree()
        assert tree.subtree_texts(0) == [(0, 0)]
        assert tree.subtree_texts(1) == []

    def test_subtree_is_rebased(self):
        assert build_tree().subtree(1) == \
            ([1, 2], [0, 0, 0], [], [], [0, 1, 1], [1])

    def test_subtree_texts_any_depth(self):
        assert chain(5000).subtree_texts(0) == []

    def test_values_of_by_step(self):
        tree = build_tree()
        assert tree.values_of(0, "#text") == [(0, 0)]
        assert tree.values_of(0, "@x") == [(1, 0)]
        assert tree.values_of(3, "#text") == []

    def test_columns_read_only(self):
        with pytest.raises(ValueError):
            build_tree().parents[0] = 5

    def test_structural_id(self):
        tree = build_tree()
        assert (tree.posts[1], tree.levels[1]) == (1, 1)

    def test_size_accounting(self):
        tree = build_tree()
        assert tree.serialized_size_bytes() > 0
        assert tree.backward_edge_bytes() > 0
        # A four-node tree has a single-leaf index: no internal nodes.
        assert tree.index_size_bytes() == 0
        assert chain(500).index_size_bytes() > 0


class TestStructureSummaryDirect:
    def test_paths(self):
        summary = StructureSummary()
        person = summary.root.child("site").child("people").child("person")
        assert person.path == "/site/people/person"

    def test_child_reuse(self):
        summary = StructureSummary()
        a1 = summary.root.child("a")
        a2 = summary.root.child("a")
        assert a1 is a2
        assert summary.node_count() == 1

    def test_resolve_empty_result(self):
        summary = StructureSummary()
        summary.root.child("a")
        assert summary.resolve([("child", "zzz")]) == []

    def test_resolve_unknown_axis(self):
        summary = StructureSummary()
        summary.root.child("a")
        with pytest.raises(ValueError):
            summary.resolve([("following", "a")])

    def test_descendant_finds_nested(self):
        summary = StructureSummary()
        summary.root.child("a").child("b").child("c")
        nodes = summary.resolve([("descendant", "c")])
        assert [n.path for n in nodes] == ["/a/b/c"]

    def test_leaves(self):
        summary = StructureSummary()
        leaf = summary.root.child("a").child("#text")
        leaf.container_path = "/a/#text"
        assert summary.leaves() == [leaf]

    def test_wildcard_excludes_attributes_and_text(self):
        summary = StructureSummary()
        a = summary.root.child("a")
        a.child("b")
        a.child("@id")
        a.child("#text")
        nodes = summary.resolve([("child", "a"), ("child", "*")])
        assert [n.step for n in nodes] == ["b"]
