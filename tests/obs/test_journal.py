"""Tests for the append-only JSONL journal."""

import json
import os

import pytest

from repro.obs.journal import WorkloadJournal


@pytest.fixture
def journal(tmp_path):
    return WorkloadJournal(tmp_path / "doc.jsonl")


class TestAppend:
    def test_appends_one_line_per_record(self, journal):
        journal.append({"query": "q1", "ts": "2026-01-01T00:00:00"})
        journal.append({"query": "q2", "ts": "2026-01-02T00:00:00"})
        lines = journal.path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["query"] == "q1"

    def test_lines_have_sorted_keys(self, journal):
        journal.append({"zeta": 1, "alpha": 2})
        line = journal.path.read_text().splitlines()[0]
        keys = list(json.loads(line))
        assert keys == sorted(keys)

    def test_write_is_atomic_no_temp_left_behind(self, journal):
        journal.append({"query": "q"})
        siblings = os.listdir(journal.path.parent)
        assert not [name for name in siblings
                    if name.endswith(".tmp")]

    def test_len_and_exists(self, journal):
        assert not journal.exists()
        assert len(journal) == 0
        journal.append({"query": "q"})
        assert journal.exists()
        assert len(journal) == 1


class TestHandleReuse:
    def test_many_appends_one_open(self, journal):
        for i in range(50):
            journal.append({"query": f"q{i}"})
        assert journal.opens == 1
        assert len(journal) == 50

    def test_close_then_append_reopens_lazily(self, journal):
        journal.append({"query": "before"})
        journal.close()
        journal.append({"query": "after"})
        assert journal.opens == 2
        assert [r["query"] for r in journal.records()] == \
            ["before", "after"]

    def test_close_is_idempotent(self, journal):
        journal.append({"query": "q"})
        journal.close()
        journal.close()
        assert journal.opens == 1

    def test_context_manager_closes(self, tmp_path):
        with WorkloadJournal(tmp_path / "ctx.jsonl") as journal:
            journal.append({"query": "q"})
            assert journal._handle is not None
        assert journal._handle is None

    def test_records_visible_while_handle_open(self, journal):
        # append() flushes, so readers see the line immediately —
        # no close() needed between write and read.
        journal.append({"query": "live"})
        assert journal._handle is not None
        assert [r["query"] for r in journal.records()] == ["live"]

    def test_concurrent_appends_never_tear_lines(self, journal):
        import json as json_module
        import threading

        def worker(tag):
            for i in range(100):
                journal.append({"query": f"{tag}-{i}",
                                "pad": "x" * 200})

        pool = [threading.Thread(target=worker, args=(t,))
                for t in range(4)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        lines = journal.path.read_text().splitlines()
        assert len(lines) == 400
        for line in lines:
            json_module.loads(line)  # every line is complete JSON
        assert journal.opens == 1


class TestRecords:
    def test_roundtrip(self, journal):
        journal.append({"query": "q", "wall_ns": 5})
        records = list(journal.records())
        assert records == [{"query": "q", "wall_ns": 5}]

    def test_skips_blank_and_garbage_lines(self, journal):
        journal.append({"query": "good"})
        with open(journal.path, "a", encoding="utf-8") as fh:
            fh.write("\n{not json}\n[1, 2]\n")
        journal.append({"query": "also good"})
        queries = [r["query"] for r in journal.records()]
        assert queries == ["good", "also good"]

    def test_missing_file_yields_nothing(self, tmp_path):
        journal = WorkloadJournal(tmp_path / "absent.jsonl")
        assert list(journal.records()) == []

