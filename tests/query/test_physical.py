"""Direct tests for the physical operator algebra: each operator's
``run()`` output, column by column."""

import numpy as np
import pytest

from repro.obs.telemetry import Telemetry
from repro.query.context import CompressedItem, EvaluationStats
from repro.query.physical import (
    Concat,
    ContAccess,
    ContScan,
    Decompress,
    MergeJoin,
    NodeSet,
    Operator,
    Parent,
    Slots,
    Sort,
    StructureSummaryAccess,
    ThetaJoin,
    counting,
)
from repro.storage.loader import load_document


class Literal(Operator):
    """A test-only source: the given columns, as lists — all-int lists
    become ``int64`` node columns, anything else object columns."""

    def __init__(self, **columns):
        self.columns = {
            name: np.array(values, dtype=np.int64)
            if all(isinstance(v, int) for v in values)
            else np.array(values, dtype=object)
            for name, values in columns.items()}

    def _run(self) -> dict:
        return dict(self.columns)


def rows_of(columns: dict) -> list[dict]:
    """An operator's output as dict rows, its values decoded."""
    plain = {}
    for name, column in columns.items():
        if isinstance(column, Slots):
            plain[name] = [container.value_at(slot)
                           for container, slots in column.segments
                           for slot in slots.tolist()]
        else:
            plain[name] = [item.decode()
                           if isinstance(item, CompressedItem) else item
                           for item in column.tolist()]
    return [dict(zip(plain, row)) for row in zip(*plain.values())]


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
        out = ContScan(repo, NAME_PATH, "id", "v").run()
        assert out["id"].dtype == np.int64
        assert isinstance(out["v"], Slots)   # nothing decoded
        assert [r["v"] for r in rows_of(out)] == ["Alice", "Bob", "Carol"]
        assert stats.container_scans == 1 and stats.decompressions == 0

    def test_cont_access_interval(self, repo, stats):
        out = ContAccess(repo, NAME_PATH, "id", "v",
                         low="Alice", high="Bob").run()
        assert [r["v"] for r in rows_of(out)] == ["Alice", "Bob"]
        assert stats.container_accesses == 1

    def test_summary_access_document_order(self, repo, stats):
        ids = StructureSummaryAccess(
            repo, [("descendant", "person")], "n").run()["n"].tolist()
        assert ids == sorted(ids)
        assert len(ids) == 3
        assert stats.summary_accesses == 1

    def test_child_unknown_tag_empty(self, repo):
        absent = StructureSummaryAccess(repo, [("child", "site"),
                                               ("child", "ghost")], "p")
        assert rows_of(absent.run()) == []

    def test_parent(self, repo):
        persons = StructureSummaryAccess(
            repo, [("descendant", "person")], "n")
        parents = Parent(persons, repo, "n", "up").run()["up"]
        assert {repo.tag_of(node) for node in parents.tolist()} == \
            {"people"}

    def test_parent_drops_root(self, repo):
        assert rows_of(Parent(Literal(n=[0]), repo, "n", "up").run()) \
            == []

    def test_descendant(self, repo):
        totals = StructureSummaryAccess(
            repo, [("child", "site"), ("descendant", "total")], "d")
        assert [repo.tag_of(node) for node in
                totals.run()["d"].tolist()] == ["total", "total"]

    def test_attribute_content(self, repo):
        """An attribute container pairs each owner with its value."""
        out = Decompress(ContScan(repo, ID_PATH, "n", "id_val"),
                         ["id_val"]).run()
        assert out["id_val"].tolist() == ["p0", "p1", "p2"]
        assert {repo.tag_of(node) for node in out["n"].tolist()} == \
            {"person"}


class TestCombination:
    def test_merge_join_with_duplicate_runs(self):
        out = MergeJoin(Literal(l=[1, 2, 2, 5]), Literal(r=[2, 2, 5]),
                        "l", "r").run()
        # 2x2 cross product on key 2 plus one match on key 5.
        assert len(out["l"]) == len(out["r"]) == 5

    def test_merge_join_empty_side(self):
        assert rows_of(MergeJoin(Literal(l=[]), Literal(r=[1]),
                                 "l", "r").run()) == []

    @staticmethod
    def nodes(*ids):
        return Literal(n=list(ids), other=["x"] * len(ids))

    def node_set(self, left, right, mode):
        out = NodeSet(self.nodes(*left),
                      None if right is None else self.nodes(*right),
                      "n", mode).run()
        assert list(out) == ["n"]   # ids only
        return out["n"].tolist()

    def test_node_set_alone_sorts_and_dedupes(self):
        assert self.node_set([7, 3, 7, 1, 3], None, "union") == [1, 3, 7]
        assert self.node_set([], None, "union") == []

    def test_node_set_modes(self):
        left, right = [9, 2, 2, 5, 7], [5, 5, 11, 2]
        assert self.node_set(left, right, "union") == [2, 5, 7, 9, 11]
        assert self.node_set(left, right, "intersect") == [2, 5]
        assert self.node_set(left, right, "difference") == [7, 9]

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
        rows = NodeSet(older, carol, "n", "difference").run()["n"].tolist()
        assert [repo.tag_of(node) for node in rows] == ["person"]
        ids = NodeSet(older, None, "n").run()["n"].tolist()
        assert ids == sorted(ids) and len(ids) == 2
        assert rows[0] == ids[1]   # p1, Alice

    def test_node_set_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            NodeSet(Literal(n=[]), None, "n", "xor")

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
                   ("child", "person")], "person").run()
        assert persons["person"].tolist() == sorted(ages)
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
        out = Sort(Literal(k=[1, 2, 1], v=["a", "b", "c"]), ("v",)).run()
        assert out["v"].tolist() == ["a", "b", "c"]
        # Stable, significance order: k first, then v.
        out = Sort(Literal(k=[1, 2, 1], v=["c", "b", "a"]),
                   ("k", "v")).run()
        assert out["v"].tolist() == ["a", "c", "b"]


class TestCompressionOperators:
    def test_decompress_operator(self, repo, stats):
        out = Decompress(ContScan(repo, NAME_PATH, "id", "v"),
                         ["v"]).run()
        assert sorted(out["v"].tolist()) == ["Alice", "Bob", "Carol"]
        assert stats.decompressions == 3

    def test_decompress_skips_plain_columns(self, stats):
        out = Decompress(Literal(v=["already plain"]), ["v"]).run()
        assert rows_of(out) == [{"v": "already plain"}]
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
            out = MergeJoin(persons, sales, "pid", "buyer").run()
        assert out["pid"].tolist() == ["p0", "p1"]
        assert out["pid"].tolist() == out["buyer"].tolist()
        assert stats.container_scans == 2


PEOPLE = """
<site>
  <people>
    <person id="p0"><name>Carol</name><age>45</age></person>
    <person id="p1"><name>Alice</name><age>31</age></person>
    <person id="p2"><name>Bob</name><age>27</age></person>
    <person id="p3"><name>Dave</name><age>31</age></person>
  </people>
  <sales>
    <sale buyer="p1"><total>10.5</total></sale>
    <sale buyer="p0"><total>20.25</total></sale>
    <sale buyer="p1"><total>7.75</total></sale>
  </sales>
</site>
"""


@pytest.fixture(scope="module")
def people():
    return load_document(PEOPLE)


def _persons(repo):
    return StructureSummaryAccess(repo, [("descendant", "person")], "n")


class TestOperatorOutputs:
    """Each operator's literal output, element ids and decoded values."""

    def test_cont_scan(self, people):
        assert rows_of(ContScan(people, NAME_PATH, "id", "v").run()) == [
            {"id": 6, "v": "Alice"}, {"id": 9, "v": "Bob"},
            {"id": 3, "v": "Carol"}, {"id": 12, "v": "Dave"}]

    def test_cont_access_string_interval(self, people):
        assert rows_of(ContAccess(people, NAME_PATH, "id", "v",
                                  low="Alice", high="Carol").run()) == [
            {"id": 6, "v": "Alice"}, {"id": 9, "v": "Bob"},
            {"id": 3, "v": "Carol"}]

    def test_cont_access_numeric_interval(self, people):
        assert rows_of(ContAccess(people, AGE_PATH, "id", "v",
                                  low=28, high=50).run()) == [
            {"id": 7, "v": "31"}, {"id": 13, "v": "31"},
            {"id": 4, "v": "45"}]

    def test_structure_summary_access(self, people):
        assert rows_of(_persons(people).run()) == \
            [{"n": 2}, {"n": 5}, {"n": 8}, {"n": 11}]

    def test_parent(self, people):
        assert rows_of(Parent(_persons(people), people, "n", "up").run()) \
            == [{"n": n, "up": 1} for n in (2, 5, 8, 11)]

    def test_parent_drops_only_the_root(self, people, stats):
        out = Parent(Literal(n=[2, 0, 5], tag=["a", "root", "b"]),
                     people, "n", "up").run()
        assert rows_of(out) == [{"n": 2, "tag": "a", "up": 1},
                                {"n": 5, "tag": "b", "up": 1}]
        assert stats.nodes_visited == 2

    def test_descendant(self, people):
        assert rows_of(StructureSummaryAccess(
            people, [("child", "site"), ("descendant", "total")],
            "d").run()) == [{"d": 16}, {"d": 18}, {"d": 20}]

    def test_text_content(self, people):
        """Each name text beside its element and, one Parent up, its
        person — the key columns of the engine's joins."""
        assert rows_of(Parent(ContScan(people, NAME_PATH, "t", "text"),
                              people, "t", "n").run()) == [
            {"t": 6, "text": "Alice", "n": 5},
            {"t": 9, "text": "Bob", "n": 8},
            {"t": 3, "text": "Carol", "n": 2},
            {"t": 12, "text": "Dave", "n": 11}]

    def test_attribute_content(self, people):
        assert rows_of(ContScan(people, ID_PATH, "n", "id").run()) == [
            {"n": 2, "id": "p0"}, {"n": 5, "id": "p1"},
            {"n": 8, "id": "p2"}, {"n": 11, "id": "p3"}]

    def test_merge_join_duplicate_runs(self):
        out = MergeJoin(Literal(l=[1, 2, 2, 5, 5, 5]),
                        Literal(r=[2, 2, 5, 7], i=[0, 1, 2, 3]),
                        "l", "r").run()
        assert rows_of(out) == \
            [{"l": 2, "r": 2, "i": i} for i in (0, 1, 0, 1)] \
            + [{"l": 5, "r": 5, "i": 2}] * 3

    def test_merge_join_long_equal_key_runs(self):
        out = MergeJoin(Literal(l=[4] * 9 + [6]),
                        Literal(r=[4] * 5 + [6], i=[0, 1, 2, 3, 4, 9]),
                        "l", "r").run()
        assert rows_of(out) == \
            [{"l": 4, "r": 4, "i": i} for i in range(5)] * 9 \
            + [{"l": 6, "r": 6, "i": 9}]

    def test_merge_join_matches_the_nested_loop(self):
        """Every equal pair once, in key, left, right order."""
        rng = np.random.default_rng(7)
        for _ in range(20):
            left = np.sort(rng.integers(0, 12, 30)).tolist()
            right = np.sort(rng.integers(0, 12, 25)).tolist()
            out = MergeJoin(Literal(l=left, i=list(range(len(left)))),
                            Literal(r=right, j=list(range(len(right)))),
                            "l", "r").run()
            assert rows_of(out) == [
                {"l": a, "i": i, "r": b, "j": j}
                for i, a in enumerate(left)
                for j, b in enumerate(right) if a == b]

    def test_merge_join_full_equijoin_result(self):
        """Each right key meets its run of two left keys."""
        out = MergeJoin(Literal(l=[i // 2 for i in range(10)]),
                        Literal(r=list(range(5))), "l", "r").run()
        assert [(row["l"], row["r"]) for row in rows_of(out)] == \
            [(i // 2, i // 2) for i in range(10)]

    def test_sort(self):
        assert rows_of(Sort(Literal(k=[5, 2, 9, 1]), ("k",)).run()) == \
            [{"k": 1}, {"k": 2}, {"k": 5}, {"k": 9}]

    def test_decompress(self, people):
        out = Decompress(ContScan(people, NAME_PATH, "id", "v"),
                         ["v"]).run()
        assert out["v"].dtype == object
        assert rows_of(out) == [
            {"id": 6, "v": "Alice"}, {"id": 9, "v": "Bob"},
            {"id": 3, "v": "Carol"}, {"id": 12, "v": "Dave"}]

    def test_blob_container_scan_values_are_items(self):
        doc = "<r>" + "".join(
            f"<t>{'x' * (i + 1)}</t>" for i in range(5)) + "</r>"
        repo = load_document(doc, default_string_codec="zlib")
        path = "/r/t/#text"
        container = repo.container(path)
        if not container.is_blob:
            pytest.skip("loader does not build blob containers here")
        assert container.as_arrays().records is None
        out = ContScan(repo, path, "id", "v").run()
        assert all(isinstance(item, CompressedItem)
                   for item in out["v"].tolist())
        with counting(EvaluationStats()) as stats:
            decoded = Decompress(ContScan(repo, path, "id", "v"),
                                 ["v"]).run()
        assert sorted(decoded["v"].tolist()) == \
            ["x" * (i + 1) for i in range(5)]
        assert stats.decompressions == 5


class TestOperatorBase:
    def test_operator_without_run_raises(self):
        class Bare(Operator):
            pass
        with pytest.raises(NotImplementedError):
            Bare().run()


class TestTelemetry:
    @staticmethod
    def _profile(run):
        telemetry = Telemetry()
        with counting(EvaluationStats(), telemetry):
            run()
        return telemetry.operator_profile()

    def test_run_is_one_span_with_its_rows(self, people):
        profile = self._profile(
            lambda: ContScan(people, NAME_PATH, "id", "v").run())
        assert profile["ContScan"]["count"] == 1
        assert profile["ContScan"]["rows"] == 4
        assert "batches" not in profile["ContScan"]

    def test_traced_run_mirrors_container_access_counters(self, people):
        """Tracing a run leaves its container counters as they are."""
        def scans():
            ContScan(people, NAME_PATH, "id", "v").run()
            ContAccess(people, AGE_PATH, "id", "v", low=28).run()
        with counting(EvaluationStats()) as plain:
            scans()
        with counting(EvaluationStats(), Telemetry()) as traced:
            scans()
        assert plain.container_scans == traced.container_scans == 1
        assert plain.container_accesses == traced.container_accesses == 1
        assert plain.as_dict() == traced.as_dict()

    def test_input_spans_nest_in_their_consumers(self, people):
        def run():
            scan = ContScan(people, ID_PATH, "person", "pid")
            plan = Parent(Sort(Decompress(scan, ["pid"]), ("pid",)),
                          people, "person", "up")
            assert plan.run()["person"].tolist() == [2, 5, 8, 11]
        telemetry = Telemetry()
        with counting(EvaluationStats(), telemetry):
            run()
        (root,) = telemetry.tracer.roots
        assert [span.name for span in root.walk()] == \
            ["Parent", "Sort", "Decompress", "ContScan"]
        assert all(span.attributes == {"rows": 4} for span in root.walk())


class TestConcat:
    def test_values_keep_one_slot_segment_per_container(self, people):
        out = Concat(ContAccess(people, NAME_PATH, "id", "v", low="Dave"),
                     Parent(ContScan(people, ID_PATH, "id", "v"),
                            people, "id", "up")).run()
        assert list(out) == ["id", "v"]   # the columns both carry
        assert [(container.path, slots.tolist())
                for container, slots in out["v"].segments] == \
            [(NAME_PATH, [3]), (ID_PATH, [0, 1, 2, 3])]
        assert rows_of(out)[0] == {"id": 12, "v": "Dave"}
        # Picking rows keeps each container's slots apart.
        picked = out["v"][np.array([4, 0, 1])]
        assert [(container.path, slots.tolist())
                for container, slots in picked.segments] == \
            [(ID_PATH, [3]), (NAME_PATH, [3]), (ID_PATH, [0])]
