"""Unit tests for the batch-pull operator protocol (DESIGN.md §13).

``RecordBatch``/column semantics, the one ``_batches`` protocol on
``Operator`` (rows are flattened batches), per-batch telemetry
attribution and every operator's literal output at each batch width.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs.telemetry import Telemetry
from repro.query.batch import (
    DEFAULT_BATCH_SIZE,
    ItemColumn,
    NodeColumn,
    RecordBatch,
    ValueColumn,
    batches_from_rows,
    rows_of_batches,
)
from repro.query.context import EvaluationStats, NodeItem
from repro.query.physical import (
    ContAccess,
    TELEMETRY,
    ContScan,
    Decompress,
    MergeJoin,
    Operator,
    Parent,
    Sort,
    StructureSummaryAccess,
    counting,
)
from repro.storage.loader import load_document

DOC = """
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

NAME_PATH = "/site/people/person/name/#text"
AGE_PATH = "/site/people/person/age/#text"
ID_PATH = "/site/people/person/@id"

SIZES = (1, 2, 7, 1024)


@pytest.fixture(scope="module")
def repo():
    return load_document(DOC)


# -- RecordBatch / column semantics -------------------------------------------

class TestRecordBatch:
    ROWS = [{"k": 1, "v": "a"}, {"k": 2, "v": "b"}, {"k": 1, "v": "c"}]

    def test_from_rows_to_rows_roundtrip(self):
        batch = RecordBatch.from_rows(self.ROWS)
        assert list(batch.to_rows()) == self.ROWS
        assert len(batch) == 3

    def test_from_rows_rejects_empty(self):
        with pytest.raises(ValueError):
            RecordBatch.from_rows([])

    def test_column_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            RecordBatch({"a": ItemColumn([1, 2]),
                         "b": ItemColumn([1])})

    def test_take_picks_rows_by_position(self):
        batch = RecordBatch.from_rows(self.ROWS)
        taken = batch.take(np.array([2, 1, 2]))
        assert [r["v"] for r in taken.to_rows()] == ["c", "b", "c"]

    def test_slice_clamps(self):
        batch = RecordBatch.from_rows(self.ROWS)
        assert [r["v"] for r in batch.slice(1, 99).to_rows()] == \
            ["b", "c"]
        assert len(batch.slice(3, 5)) == 0

    def test_with_column_adds_or_replaces(self):
        batch = RecordBatch.from_rows(self.ROWS)
        grown = batch.with_column("x", ItemColumn([7, 8, 9]))
        assert [r["x"] for r in grown.to_rows()] == [7, 8, 9]
        replaced = grown.with_column("v", ItemColumn(["z"] * 3))
        assert [r["v"] for r in replaced.to_rows()] == ["z"] * 3
        assert batch.column_names() == ("k", "v")   # unchanged
        with pytest.raises(ValueError):
            batch.with_column("x", ItemColumn([1]))

    def test_merged_with_is_dict_merge(self):
        left = RecordBatch.from_rows([{"a": 1, "s": "l"}])
        right = RecordBatch.from_rows([{"b": 2, "s": "r"}])
        merged = left.merged_with(right)
        assert list(merged.to_rows()) == [{"a": 1, "s": "r", "b": 2}]

    def test_concat_mixed_column_kinds_falls_back_to_items(self, repo):
        container = repo.container(NAME_PATH)
        value = RecordBatch(
            {"v": ValueColumn(container, np.array([0, 1]))})
        items = RecordBatch(
            {"v": ItemColumn(["x"])})
        merged = RecordBatch.concat([value, items])
        assert len(merged) == 3
        assert isinstance(merged.column("v"), ItemColumn)

    def test_batches_from_rows_roundtrip_all_sizes(self):
        rows = [{"i": i} for i in range(11)]
        for size in SIZES:
            batches = list(batches_from_rows(iter(rows), size))
            assert all(len(b) <= size for b in batches)
            assert list(rows_of_batches(iter(batches))) == rows


class TestColumns:
    def test_node_column_items(self):
        column = NodeColumn(np.array([3, 1]), doc="d.xml")
        assert column.item_at(0) == NodeItem(3, "d.xml")
        assert column.to_items() == [NodeItem(3, "d.xml"),
                                     NodeItem(1, "d.xml")]

    def test_value_column_items_match_scalar_records(self, repo):
        container = repo.container(NAME_PATH)
        column = ValueColumn(container, np.array([2, 0]))
        codec = container.codec
        decoded = [codec.decode(item.compressed)
                   for item in column.to_items()]
        records = container.as_arrays().records
        assert decoded == [codec.decode(records[2].compressed),
                           codec.decode(records[0].compressed)]

    def test_value_column_concat_rejects_mixed_containers(self, repo):
        left = ValueColumn(repo.container(NAME_PATH), np.array([0]))
        right = ValueColumn(repo.container(ID_PATH), np.array([0]))
        with pytest.raises(ValueError):
            ValueColumn.concat([left, right])


# -- Operator protocol ----------------------------------------------------------

class _Chunked(Operator):
    def __init__(self, rows):
        self._source = rows

    def _batches(self, size):
        return batches_from_rows(iter(self._source), size)


class _NoBatches(Operator):
    def _rows(self):  # not the protocol: nothing derives from it
        return iter([{"i": 0}])


class TestOperatorProtocol:
    ROWS = [{"i": i} for i in range(5)]

    def test_batches_only_operator_iterates_as_rows(self):
        assert _Chunked(self.ROWS).rows() == self.ROWS
        assert list(_Chunked(self.ROWS)) == self.ROWS

    def test_batches_are_chunked_at_the_requested_width(self):
        for size, lengths in ((1, [1] * 5), (2, [2, 2, 1]),
                              (7, [5]), (1024, [5])):
            batches = list(_Chunked(self.ROWS).batches(size))
            assert [len(b) for b in batches] == lengths
            assert list(rows_of_batches(batches)) == self.ROWS

    def test_neither_protocol_raises(self):
        with pytest.raises(NotImplementedError):
            list(_NoBatches().batches())
        with pytest.raises(NotImplementedError):
            list(_NoBatches())

    def test_batch_size_validated(self):
        with pytest.raises(ValueError):
            _Chunked(self.ROWS).batches(0)

    def test_default_batch_size(self):
        batches = list(_Chunked(
            [{"i": i} for i in range(DEFAULT_BATCH_SIZE + 1)]).batches())
        assert [len(b) for b in batches] == \
            [DEFAULT_BATCH_SIZE, 1]


# -- telemetry attribution -----------------------------------------------------

class TestBatchTelemetry:
    @staticmethod
    def _profile(run):
        telemetry = Telemetry()
        token = TELEMETRY.set(telemetry)
        try:
            run()
        finally:
            TELEMETRY.reset(token)
        return telemetry.operator_profile()

    def test_batch_path_reports_same_row_counts_plus_batches(self, repo):
        iterated = self._profile(
            lambda: list(ContScan(repo, NAME_PATH, "id", "v")))
        batched = self._profile(
            lambda: list(ContScan(repo, NAME_PATH, "id", "v").batches(2)))
        assert iterated["ContScan"]["rows"] == 4
        assert iterated["ContScan"]["batches"] == 1
        assert batched["ContScan"]["rows"] == 4
        assert batched["ContScan"]["batches"] == 2
        assert iterated["ContScan"]["count"] == \
            batched["ContScan"]["count"] == 1

    def test_batch_path_mirrors_container_access_counters(self, repo):
        for pull in (list, lambda scan: list(scan.batches(2))):
            with counting(EvaluationStats()) as stats:
                pull(ContScan(repo, NAME_PATH, "id", "v"))
            assert stats.container_scans == 1

    def test_per_row_operator_keeps_upstream_on_batches(self, repo):
        """A per-row ``Sort`` mid-pipeline pulls its input as
        batches."""
        def run():
            scan = ContScan(repo, ID_PATH, "person", "pid")
            plan = Parent(Sort(Decompress(scan, ["pid"]), ("pid",)),
                          repo, "person", "up")
            assert [r["person"].node_id for r in plan] == [2, 5, 8, 11]
        profile = self._profile(run)
        assert profile["ContScan"]["batches"] > 0
        assert profile["ContScan"]["rows"] == 4
        assert profile["Sort"]["rows"] == 4
        assert profile["Parent"]["rows"] == 4


# -- per-operator output at every batch width -----------------------------------

def _plain(rows):
    """Rows with values decoded and nodes reduced to their ids."""
    stats = EvaluationStats()
    out = []
    for row in rows:
        plain = {}
        for name, value in row.items():
            if hasattr(value, "compressed"):
                value = value.decode(stats)
            elif isinstance(value, NodeItem):
                value = value.node_id
            plain[name] = value
        out.append(plain)
    return out


def _check(build, expected):
    """``build()`` yields ``expected`` as rows and at every width."""
    assert _plain(build()) == expected
    for size in SIZES:
        batches = list(build().batches(size))
        assert all(len(b) <= size for b in batches), size
        assert _plain(rows_of_batches(batches)) == expected, size


def _persons(repo, step="person"):
    return StructureSummaryAccess(repo, [("descendant", step)], "n")


class TestOperatorParity:
    def test_cont_scan(self, repo):
        _check(lambda: ContScan(repo, NAME_PATH, "id", "v"),
               [{"id": 6, "v": "Alice"}, {"id": 9, "v": "Bob"},
                {"id": 3, "v": "Carol"}, {"id": 12, "v": "Dave"}])

    def test_cont_access_string_interval(self, repo):
        _check(lambda: ContAccess(repo, NAME_PATH, "id", "v",
                                  low="Alice", high="Carol"),
               [{"id": 6, "v": "Alice"}, {"id": 9, "v": "Bob"},
                {"id": 3, "v": "Carol"}])

    def test_cont_access_numeric_interval(self, repo):
        _check(lambda: ContAccess(repo, AGE_PATH, "id", "v",
                                  low=28, high=50),
               [{"id": 7, "v": "31"}, {"id": 13, "v": "31"},
                {"id": 4, "v": "45"}])

    def test_structure_summary_access(self, repo):
        _check(lambda: _persons(repo),
               [{"n": 2}, {"n": 5}, {"n": 8}, {"n": 11}])

    def test_parent(self, repo):
        _check(lambda: Parent(_persons(repo), repo, "n", "up"),
               [{"n": n, "up": 1} for n in (2, 5, 8, 11)])

    def test_parent_drops_root_in_batches(self, repo):
        _check(lambda: Parent([{"n": NodeItem(0)}], repo, "n", "up"),
               [])

    def test_descendant(self, repo):
        _check(lambda: StructureSummaryAccess(
            repo, [("child", "site"), ("descendant", "total")], "d"),
            [{"d": 16}, {"d": 18}, {"d": 20}])

    def test_text_content(self, repo):
        """Each name text beside its element and, one Parent up, its
        person — the key streams of the engine's joins."""
        _check(lambda: Parent(ContScan(repo, NAME_PATH, "t", "text"),
                              repo, "t", "n"),
               [{"t": 6, "text": "Alice", "n": 5},
                {"t": 9, "text": "Bob", "n": 8},
                {"t": 3, "text": "Carol", "n": 2},
                {"t": 12, "text": "Dave", "n": 11}])

    def test_attribute_content(self, repo):
        _check(lambda: ContScan(repo, ID_PATH, "n", "id"),
               [{"n": 2, "id": "p0"}, {"n": 5, "id": "p1"},
                {"n": 8, "id": "p2"}, {"n": 11, "id": "p3"}])

    def test_merge_join_duplicate_runs(self, repo):
        left = [{"l": k} for k in (1, 2, 2, 5, 5, 5)]
        right = [{"r": k, "i": i}
                 for i, k in enumerate((2, 2, 5, 7))]
        _check(lambda: MergeJoin(list(left), list(right), "l", "r"),
               [{"l": 2, "r": 2, "i": i} for i in (0, 1, 0, 1)]
               + [{"l": 5, "r": 5, "i": 2}] * 3)

    def test_merge_join_run_spanning_batches(self, repo):
        # equal-key runs longer than the batch size must be stitched.
        left = [{"l": 4}] * 9 + [{"l": 6}]
        right = [{"r": 4, "i": i} for i in range(5)] + [{"r": 6, "i": 9}]
        _check(lambda: MergeJoin(list(left), list(right), "l", "r"),
               [{"l": 4, "r": 4, "i": i} for i in range(5)] * 9
               + [{"l": 6, "r": 6, "i": 9}])

    def test_sort(self, repo):
        rows = [{"k": i} for i in (5, 2, 9, 1)]
        _check(lambda: Sort(list(rows), ("k",)),
               [{"k": 1}, {"k": 2}, {"k": 5}, {"k": 9}])

    def test_decompress(self, repo):
        def build():
            scan = ContScan(repo, NAME_PATH, "id", "v")
            return Decompress(scan, ["v"])
        _check(build,
               [{"id": 6, "v": "Alice"}, {"id": 9, "v": "Bob"},
                {"id": 3, "v": "Carol"}, {"id": 12, "v": "Dave"}])
        assert all(isinstance(r["v"], str) for r in build())


class TestMergeJoinStreaming:
    """MergeJoin must not materialize either input."""

    @staticmethod
    def _tracking(rows):
        state = {"pulled": 0}

        def gen():
            for row in rows:
                state["pulled"] += 1
                yield row
        return gen(), state

    def test_row_path_streams_probe_side(self):
        """Iterating as rows streams too: rows are flattened batches."""
        total = 100_000
        left, state = self._tracking(
            {"l": i} for i in range(total))
        right = [{"r": i} for i in range(0, total, 500)]
        join = iter(MergeJoin(left, right, "l", "r"))
        assert next(join) == {"l": 0, "r": 0}
        # the probe side was pulled on demand, not list()-ed.
        assert state["pulled"] < total // 10

    def test_batch_path_streams_both_sides(self):
        total = 10_000
        left, lstate = self._tracking(
            {"l": i} for i in range(total))
        right, rstate = self._tracking(
            {"r": i} for i in range(total))
        join = MergeJoin(left, right, "l", "r")
        first_batch = list(next(join.batches(64)).to_rows())
        assert first_batch[0] == {"l": 0, "r": 0}
        assert all(row["l"] == row["r"] for row in first_batch)
        assert lstate["pulled"] < total // 10
        assert rstate["pulled"] < total // 10

    def test_runs_across_batches_match_the_nested_loop(self):
        """Bulk-joined keys and the runs at each batch's last key give
        every equal pair once, in key, left, right order."""
        rng = np.random.default_rng(7)
        for _ in range(20):
            left = [{"l": int(k), "i": i} for i, k in
                    enumerate(np.sort(rng.integers(0, 12, 30)))]
            right = [{"r": int(k), "j": j} for j, k in
                     enumerate(np.sort(rng.integers(0, 12, 25)))]
            expected = [{**a, **b} for a in left for b in right
                        if a["l"] == b["r"]]
            _check(lambda: MergeJoin(list(left), list(right), "l", "r"),
                   expected)

    def test_full_equijoin_result_matches(self):
        left = [{"l": i // 2} for i in range(10)]
        right = [{"r": i} for i in range(5)]
        expected = [(i // 2, i // 2) for i in range(10)]
        for size in SIZES:
            join = MergeJoin(list(left), list(right), "l", "r")
            assert [(r["l"], r["r"]) for r in rows_of_batches(
                join.batches(size))] == expected


class TestBlobFallback:
    def test_blob_container_scan_falls_back_to_rows(self):
        doc = "<r>" + "".join(
            f"<t>{'x' * (i + 1)}</t>" for i in range(5)) + "</r>"
        repo = load_document(doc, default_string_codec="zlib")
        path = "/r/t/#text"
        container = repo.container(path)
        if not container.is_blob:
            pytest.skip("loader does not build blob containers here")
        assert container.as_arrays().records is None
        rows = list(rows_of_batches(
            ContScan(repo, path, "id", "v").batches(2)))
        assert len(rows) == 5

    def test_value_column_rejects_blob(self):
        doc = "<r><t>aa</t><t>bb</t></r>"
        repo = load_document(doc, default_string_codec="zlib")
        container = repo.container("/r/t/#text")
        if not container.is_blob:
            pytest.skip("loader does not build blob containers here")
        with pytest.raises(ValueError):
            ValueColumn(container, np.array([0]))
