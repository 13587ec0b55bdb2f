"""Direct tests for the physical operator algebra."""

import pytest

from repro.errors import QueryTypeError
from repro.query.context import CompressedItem, EvaluationStats, NodeItem
from repro.query.physical import (
    AttributeContent,
    Child,
    ContAccess,
    ContScan,
    CompressConstant,
    Decompress,
    Descendant,
    Distinct,
    HashJoin,
    MergeJoin,
    NestedLoopJoin,
    NodeSet,
    Parent,
    Project,
    Select,
    Sort,
    StructureSummaryAccess,
    TextContent,
    ThetaJoin,
)
from repro.storage.loader import load_document

DOC = """
<site>
  <people>
    <person id="p0"><name>Carol</name><age>45</age></person>
    <person id="p1"><name>Alice</name><age>31</age></person>
    <person id="p2"><name>Bob</name><age>27</age></person>
  </people>
  <sales>
    <sale buyer="p1"><total>10</total></sale>
    <sale buyer="p0"><total>20</total></sale>
  </sales>
</site>
"""

NAME_PATH = "/site/people/person/name/#text"
AGE_PATH = "/site/people/person/age/#text"
TOTAL_PATH = "/site/sales/sale/total/#text"
ID_PATH = "/site/people/person/@id"


@pytest.fixture(scope="module")
def repo():
    return load_document(DOC)


@pytest.fixture
def stats():
    return EvaluationStats()


class TestDataAccess:
    def test_cont_scan_value_order(self, repo, stats):
        rows = ContScan(repo, NAME_PATH, "id", "v", stats).rows()
        codec = repo.container(NAME_PATH).codec
        values = [codec.decode(r["v"].compressed) for r in rows]
        assert values == ["Alice", "Bob", "Carol"]
        assert stats.container_scans == 1

    def test_cont_access_interval(self, repo, stats):
        rows = ContAccess(repo, NAME_PATH, "id", "v",
                          low="Alice", high="Bob", stats=stats).rows()
        codec = repo.container(NAME_PATH).codec
        assert [codec.decode(r["v"].compressed) for r in rows] == \
            ["Alice", "Bob"]
        assert stats.container_accesses == 1

    def test_summary_access_document_order(self, repo, stats):
        rows = StructureSummaryAccess(
            repo, [("descendant", "person")], "n", stats).rows()
        ids = [r["n"].node_id for r in rows]
        assert ids == sorted(ids)
        assert len(ids) == 3
        assert stats.summary_accesses == 1

    def test_child_preserves_input_order(self, repo):
        people = StructureSummaryAccess(repo, [("child", "site"),
                                               ("child", "people")], "p")
        persons = Child(people, repo, "p", "c", tag="person").rows()
        assert len(persons) == 3
        ids = [r["c"].node_id for r in persons]
        assert ids == sorted(ids)

    def test_child_unknown_tag_empty(self, repo):
        people = StructureSummaryAccess(repo, [("child", "site")], "p")
        assert Child(people, repo, "p", "c", tag="ghost").rows() == []

    def test_parent(self, repo):
        persons = StructureSummaryAccess(
            repo, [("descendant", "person")], "n")
        parents = Parent(persons, repo, "n", "up").rows()
        tags = {repo.tag_of(r["up"].node_id) for r in parents}
        assert tags == {"people"}

    def test_parent_drops_root(self, repo):
        root_rows = [{"n": NodeItem(0)}]
        assert Parent(root_rows, repo, "n", "up").rows() == []

    def test_descendant(self, repo):
        site = [{"n": NodeItem(0)}]
        rows = Descendant(site, repo, "n", "d", tag="total").rows()
        assert len(rows) == 2

    def test_text_content_hash_join(self, repo, stats):
        persons = StructureSummaryAccess(
            repo, [("descendant", "name")], "n")
        rows = TextContent(persons, repo, "n", "text", NAME_PATH,
                           stats).rows()
        assert len(rows) == 3
        assert stats.hash_joins == 1
        decoded = sorted(r["text"].decode(stats) for r in rows)
        assert decoded == ["Alice", "Bob", "Carol"]

    def test_attribute_content(self, repo):
        persons = StructureSummaryAccess(
            repo, [("descendant", "person")], "n")
        rows = AttributeContent(persons, repo, "n", "id_val",
                                ID_PATH).rows()
        assert len(rows) == 3


class TestCombination:
    ROWS = [{"k": 1, "v": "a"}, {"k": 2, "v": "b"}, {"k": 1, "v": "c"}]

    def test_select(self):
        out = Select(self.ROWS, lambda r: r["k"] == 1).rows()
        assert [r["v"] for r in out] == ["a", "c"]

    def test_project(self):
        out = Project(self.ROWS, ["k"]).rows()
        assert out == [{"k": 1}, {"k": 2}, {"k": 1}]

    def test_hash_join(self):
        left = [{"l": 1}, {"l": 2}, {"l": 3}]
        right = [{"r": 2, "tag": "x"}, {"r": 2, "tag": "y"}]
        out = HashJoin(left, right, lambda r: r["l"],
                       lambda r: r["r"]).rows()
        assert [(r["l"], r["tag"]) for r in out] == [(2, "x"), (2, "y")]

    def test_merge_join_with_duplicate_runs(self):
        left = [{"l": 1}, {"l": 2}, {"l": 2}, {"l": 5}]
        right = [{"r": 2}, {"r": 2}, {"r": 5}]
        out = MergeJoin(left, right, lambda r: r["l"],
                        lambda r: r["r"]).rows()
        # 2x2 cross product on key 2 plus one match on key 5.
        assert len(out) == 5

    def test_merge_join_empty_side(self):
        assert MergeJoin([], [{"r": 1}], lambda r: r.get("l"),
                         lambda r: r["r"]).rows() == []

    @staticmethod
    def nodes(*ids):
        return [{"n": NodeItem(i), "other": "x"} for i in ids]

    def node_set(self, left, right, mode, size=None):
        operator = NodeSet(self.nodes(*left),
                           None if right is None else self.nodes(*right),
                           "n", mode)
        rows = [row for batch in operator.batches(size)
                for row in batch.to_rows()]
        assert all(list(row) == ["n"] for row in rows)   # ids only
        return [row["n"].node_id for row in rows]

    def test_node_set_alone_sorts_and_dedupes(self):
        assert self.node_set([7, 3, 7, 1, 3], None, "union") == [1, 3, 7]
        assert self.node_set([], None, "union") == []

    def test_node_set_modes(self):
        left, right = [9, 2, 2, 5, 7], [5, 5, 11, 2]
        assert self.node_set(left, right, "union") == [2, 5, 7, 9, 11]
        assert self.node_set(left, right, "intersect") == [2, 5]
        assert self.node_set(left, right, "difference") == [7, 9]
        # The same sets whatever the batch width on either side.
        assert self.node_set(left, right, "difference", size=1) == [7, 9]
        assert self.node_set(left, right, "union", size=2) == \
            [2, 5, 7, 9, 11]

    @pytest.mark.parametrize("mode, left_only, right_only", [
        ("union", [1, 4], [1, 4]), ("intersect", [], []),
        ("difference", [1, 4], [])])
    def test_node_set_empty_sides(self, mode, left_only, right_only):
        assert self.node_set([4, 1, 4], [], mode) == left_only
        assert self.node_set([], [4, 1, 4], mode) == right_only
        assert self.node_set([], [], mode) == []

    def test_node_set_over_operators(self, repo, stats):
        """ContAccess -> Parent streams: persons aged >= 30 that are
        not named Carol, in document order."""
        older = Parent(ContAccess(repo, AGE_PATH, "o", "v", low="30",
                                  stats=stats), repo, "o", "n", stats)
        carol = Parent(ContAccess(repo, NAME_PATH, "o", "v", low="Carol",
                                  high="Carol"), repo, "o", "n")
        rows = NodeSet(older, carol, "n", "difference").rows()
        assert [repo.tag_of(r["n"].node_id) for r in rows] == ["person"]
        ids = [r["n"].node_id for r in NodeSet(older, None, "n").rows()]
        assert ids == sorted(ids) and len(ids) == 2
        assert rows[0]["n"].node_id == ids[1]   # p1, Alice

    def test_node_set_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            NodeSet([], None, "n", "xor")

    def test_nested_loop_join_theta(self):
        left = [{"l": 1}, {"l": 4}]
        right = [{"r": 2}, {"r": 3}]
        out = NestedLoopJoin(left, right,
                             lambda a, b: a["l"] < b["r"]).rows()
        assert len(out) == 2  # (1,2) and (1,3)

    @pytest.mark.parametrize("op", ["<", "<=", ">", ">="])
    def test_theta_join_matches_nested_loop(self, repo, stats, op):
        """Key side: 2 * age, owners one Parent hop up (the persons)."""
        import operator
        holds = {"<": operator.lt, "<=": operator.le,
                 ">": operator.gt, ">=": operator.ge}[op]
        outer = [{"bound": b} for b in (0, 54, 62, 62.5, 90, 1000)]
        join = ThetaJoin(outer, repo, [AGE_PATH], op,
                         lambda row: row["bound"], "person", scale=2.0,
                         ascend=1, stats=stats)
        ages = {2: 45, 5: 31, 8: 27}   # person node id -> age
        persons = StructureSummaryAccess(
            repo, [("child", "site"), ("child", "people"),
                   ("child", "person")], "person").rows()
        assert [p["person"].node_id for p in persons] == sorted(ages)
        expected = NestedLoopJoin(
            outer, persons,
            lambda a, b: holds(2.0 * ages[b["person"].node_id],
                               a["bound"])).rows()
        assert join.rows() == expected   # document order per outer row
        assert stats.container_accesses == len(outer)

    def test_theta_join_range_length_is_the_match_count(self, repo):
        join = ThetaJoin(None, repo, [AGE_PATH], ">", None, "person")
        assert join.build()
        start, end = join.probe(30)
        assert end - start == 2 and join.probe(45) == (3, 3)

    def test_theta_join_refuses_what_position_cannot_answer(self, repo):
        # String container; and two <total> keys owned by one <sales>.
        assert not ThetaJoin(None, repo, [NAME_PATH], "<", None,
                             "p").build()
        assert ThetaJoin(None, repo, [TOTAL_PATH], "<", None, "s",
                         ascend=1).build()
        shared_owner = ThetaJoin(None, repo, [TOTAL_PATH], "<", None,
                                 "s", ascend=2)
        assert not shared_owner.build()
        with pytest.raises(QueryTypeError):
            shared_owner.rows()

    def test_distinct(self):
        out = Distinct(self.ROWS, lambda r: r["k"]).rows()
        assert [r["k"] for r in out] == [1, 2]

    def test_sort(self):
        out = Sort(self.ROWS, lambda r: r["v"], reverse=True).rows()
        assert [r["v"] for r in out] == ["c", "b", "a"]


class TestCompressionOperators:
    def test_decompress_operator(self, repo, stats):
        rows = ContScan(repo, NAME_PATH, "id", "v").rows()
        out = Decompress(rows, ["v"], stats).rows()
        assert sorted(r["v"] for r in out) == ["Alice", "Bob", "Carol"]
        assert stats.decompressions == 3

    def test_decompress_skips_plain_columns(self, stats):
        out = Decompress([{"v": "already plain"}], ["v"], stats).rows()
        assert out == [{"v": "already plain"}]
        assert stats.decompressions == 0

    def test_compress_constant(self, repo):
        helper = CompressConstant(repo, NAME_PATH)
        encoded = helper.encode("Alice")
        assert encoded is not None
        codec = repo.container(NAME_PATH).codec
        assert codec.decode(encoded) == "Alice"
        assert helper.encode("ZZZ~unseen") is None


class TestCompressedJoinPipeline:
    """A miniature Figure 5: join two containers on compressed keys."""

    def test_merge_join_on_compressed_attributes(self, repo):
        # person/@id and sale/@buyer were compressed independently, so
        # join via decoded keys (with a shared model the compressed
        # bytes themselves would be the keys).
        stats = EvaluationStats()
        persons = ContScan(repo, ID_PATH, "person", "pid", stats)
        sales = ContScan(repo, "/site/sales/sale/@buyer", "sale",
                         "buyer", stats)
        out = HashJoin(persons.rows(), sales.rows(),
                       lambda r: r["pid"].decode(stats),
                       lambda r: r["buyer"].decode(stats),
                       stats).rows()
        assert len(out) == 2
        joined = {(r["pid"].decode(stats)) for r in out}
        assert joined == {"p0", "p1"}
