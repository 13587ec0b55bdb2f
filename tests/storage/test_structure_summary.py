"""Direct tests for StructureTree and StructureSummary internals."""

import pytest

from repro.storage.structure import NodeRecord, StructureTree
from repro.storage.summary import StructureSummary


def build_tree():
    """a -> (b -> d), c  with post/level numbers filled in."""
    tree = StructureTree()
    tree.add(NodeRecord(0, 0, -1, children=[1, 3], post=3, level=0))
    tree.add(NodeRecord(1, 1, 0, children=[2], post=1, level=1))
    tree.add(NodeRecord(2, 2, 1, post=0, level=2))
    tree.add(NodeRecord(3, 3, 0, post=2, level=1))
    return tree


class TestStructureTree:
    def test_dense_ids_enforced(self):
        tree = StructureTree()
        with pytest.raises(ValueError):
            tree.add(NodeRecord(5, 0, -1))

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
        """The O(1) range is the record-by-record scan it replaced, on
        every node, with and without a tag filter."""
        import random

        from repro.storage.loader import load_document
        from repro.verify.documents import generate_entities, render_xml
        from repro.xmark.generator import generate_xmark
        xml = render_xml(generate_entities(random.Random(3), 12)) \
            if document == "oracle" else generate_xmark(0.002, seed=42)
        tree = load_document(xml).structure

        def scanned(node_id, tag_code=None):
            post, found = tree.record(node_id).post, []
            for candidate in range(node_id + 1, len(tree)):
                if tree.record(candidate).post > post:
                    break
                if tag_code in (None, tree.record(candidate).tag_code):
                    found.append(candidate)
            return found

        for record in tree:
            assert tree.descendants_of(record.node_id) == \
                scanned(record.node_id)
            assert tree.descendants_of(record.node_id, record.tag_code) \
                == scanned(record.node_id, record.tag_code)

    def test_btree_index(self):
        tree = build_tree()
        record = tree.index.search(2)
        assert record is not None and record.node_id == 2

    def test_index_invalidated_on_add(self):
        tree = build_tree()
        _ = tree.index
        tree.add(NodeRecord(4, 1, 3, post=4, level=2))
        assert tree.index.search(4) is not None

    def test_structural_id(self):
        tree = build_tree()
        sid = tree.record(1).structural_id
        assert (sid.pre, sid.post, sid.level) == (1, 1, 1)

    def test_size_accounting(self):
        tree = build_tree()
        assert tree.serialized_size_bytes() > 0
        assert tree.backward_edge_bytes() > 0
        # A four-node tree has a single-leaf index: no internal nodes.
        assert tree.index_size_bytes() == 0
        big = StructureTree()
        for i in range(500):
            big.add(NodeRecord(i, 0, i - 1, post=i, level=0))
        assert big.index_size_bytes() > 0


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
