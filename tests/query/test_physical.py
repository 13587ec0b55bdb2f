"""Direct tests for the physical operator algebra."""

import pytest

from repro.query.context import EvaluationStats, NodeItem
from repro.query.physical import (
    ContAccess,
    ContScan,
    Decompress,
    MergeJoin,
    NodeSet,
    Parent,
    Sort,
    StructureSummaryAccess,
    ThetaJoin,
    counting,
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
    """The counters of one run: what the operators pulled in the test
    count into."""
    with counting(EvaluationStats()) as stats:
        yield stats


class TestDataAccess:
    def test_cont_scan_value_order(self, repo, stats):
        rows = ContScan(repo, NAME_PATH, "id", "v").rows()
        codec = repo.container(NAME_PATH).codec
        values = [codec.decode(r["v"].compressed) for r in rows]
        assert values == ["Alice", "Bob", "Carol"]
        assert stats.container_scans == 1

    def test_cont_access_interval(self, repo, stats):
        rows = ContAccess(repo, NAME_PATH, "id", "v",
                          low="Alice", high="Bob").rows()
        codec = repo.container(NAME_PATH).codec
        assert [codec.decode(r["v"].compressed) for r in rows] == \
            ["Alice", "Bob"]
        assert stats.container_accesses == 1

    def test_summary_access_document_order(self, repo, stats):
        rows = StructureSummaryAccess(
            repo, [("descendant", "person")], "n").rows()
        ids = [r["n"].node_id for r in rows]
        assert ids == sorted(ids)
        assert len(ids) == 3
        assert stats.summary_accesses == 1

    def test_child_unknown_tag_empty(self, repo):
        absent = StructureSummaryAccess(repo, [("child", "site"),
                                               ("child", "ghost")], "p")
        assert absent.rows() == []

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
        totals = StructureSummaryAccess(
            repo, [("child", "site"), ("descendant", "total")], "d")
        assert [repo.tag_of(r["d"].node_id) for r in totals.rows()] == \
            ["total", "total"]

    def test_attribute_content(self, repo):
        """An attribute container pairs each owner with its value."""
        rows = Decompress(ContScan(repo, ID_PATH, "n", "id_val"),
                          ["id_val"]).rows()
        assert [r["id_val"] for r in rows] == ["p0", "p1", "p2"]
        assert {repo.tag_of(r["n"].node_id) for r in rows} == {"person"}


class TestCombination:
    ROWS = [{"k": 1, "v": "a"}, {"k": 2, "v": "b"}, {"k": 1, "v": "c"}]

    def test_merge_join_with_duplicate_runs(self):
        left = [{"l": 1}, {"l": 2}, {"l": 2}, {"l": 5}]
        right = [{"r": 2}, {"r": 2}, {"r": 5}]
        out = MergeJoin(left, right, "l", "r").rows()
        # 2x2 cross product on key 2 plus one match on key 5.
        assert len(out) == 5

    def test_merge_join_empty_side(self):
        assert MergeJoin([], [{"r": 1}], "l", "r").rows() == []

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
        older = Parent(ContAccess(repo, AGE_PATH, "o", "v", low="30"),
                       repo, "o", "n")
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

    @pytest.mark.parametrize("op", ["<", "<=", ">", ">="])
    def test_theta_join_matches_nested_loop(self, repo, stats, op):
        """Key side: 2 * age, owners one Parent hop up (the persons);
        each probe's owners are the persons the nested loop keeps."""
        import operator
        holds = {"<": operator.lt, "<=": operator.le,
                 ">": operator.gt, ">=": operator.ge}[op]
        bounds = (0, 54, 62, 62.5, 90, 1000)
        join = ThetaJoin(repo, [AGE_PATH], op, "person", scale=2.0,
                         ascend=1)
        assert join.build()
        ages = {2: 45, 5: 31, 8: 27}   # person node id -> age
        persons = StructureSummaryAccess(
            repo, [("child", "site"), ("child", "people"),
                   ("child", "person")], "person").rows()
        assert [p["person"].node_id for p in persons] == sorted(ages)
        for bound in bounds:
            start, end = join.probe(bound)
            assert sorted(join.owners[start:end].tolist()) == [
                node for node, age in ages.items()
                if holds(2.0 * age, bound)]
        assert stats.container_accesses == len(bounds)

    def test_theta_join_range_length_is_the_match_count(self, repo):
        join = ThetaJoin(repo, [AGE_PATH], ">", "person")
        assert join.build()
        start, end = join.probe(30)
        assert end - start == 2 and join.probe(45) == (3, 3)

    def test_theta_join_refuses_what_position_cannot_answer(self, repo):
        # String container; and two <total> keys owned by one <sales>.
        assert not ThetaJoin(repo, [NAME_PATH], "<", "p").build()
        assert ThetaJoin(repo, [TOTAL_PATH], "<", "s", ascend=1).build()
        assert not ThetaJoin(repo, [TOTAL_PATH], "<", "s",
                             ascend=2).build()

    def test_sort(self):
        out = Sort(self.ROWS, ("v",)).rows()
        assert [r["v"] for r in out] == ["a", "b", "c"]
        # Stable, significance order: k first, then v.
        out = Sort(self.ROWS[::-1], ("k", "v")).rows()
        assert [r["v"] for r in out] == ["a", "c", "b"]


class TestCompressionOperators:
    def test_decompress_operator(self, repo, stats):
        rows = ContScan(repo, NAME_PATH, "id", "v").rows()
        out = Decompress(rows, ["v"]).rows()
        assert sorted(r["v"] for r in out) == ["Alice", "Bob", "Carol"]
        assert stats.decompressions == 3

    def test_decompress_skips_plain_columns(self, stats):
        out = Decompress([{"v": "already plain"}], ["v"]).rows()
        assert out == [{"v": "already plain"}]
        assert stats.decompressions == 0


class TestCompressedJoinPipeline:
    """A miniature Figure 5: join two containers on compressed keys."""

    def test_merge_join_on_compressed_attributes(self, repo):
        # person/@id and sale/@buyer were compressed independently, so
        # join via decoded keys (with a shared model the compressed
        # bytes themselves would be the keys).
        persons = Decompress(ContScan(repo, ID_PATH, "person", "pid"),
                             ["pid"])
        sales = Decompress(ContScan(repo, "/site/sales/sale/@buyer",
                                    "sale", "buyer"), ["buyer"])
        with counting(EvaluationStats()) as stats:
            out = MergeJoin(persons, sales, "pid", "buyer").rows()
        assert [r["pid"] for r in out] == ["p0", "p1"]
        assert all(r["pid"] == r["buyer"] for r in out)
        assert stats.container_scans == 2
