"""Fork-safety regressions: journals crossing ``fork`` boundaries.

A child process inheriting an open :class:`WorkloadJournal` (or the
slow-query log built on it) used to share the parent's buffered text
handle — concurrent appends interleaved mid-line and a partial line
buffered at fork time was flushed twice, once by each process.  The
journal now detects the PID change and reopens its own handle (and
replaces the inherited lock), so parent and children interleave only
whole lines.
"""

import json
import multiprocessing
import os

import pytest

from repro.obs.journal import WorkloadJournal
from repro.service.slowlog import SlowQueryLog

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable")

FORK = multiprocessing.get_context("fork")


def _lines(path):
    return [line for line in
            path.read_text(encoding="utf-8").splitlines() if line]


def _child_appends(journal, count, tag):
    for i in range(count):
        journal.append({"who": tag, "i": i})
    journal.close()
    os._exit(0)


class TestJournalForkSafety:
    def test_children_reopen_and_interleave_whole_lines(self, tmp_path):
        journal = WorkloadJournal(tmp_path / "forked.jsonl")
        journal.append({"who": "parent", "i": -1})  # handle now open
        workers = [FORK.Process(target=_child_appends,
                                args=(journal, 25, f"child{n}"))
                   for n in range(3)]
        for worker in workers:
            worker.start()
        for i in range(25):
            journal.append({"who": "parent", "i": i})
        for worker in workers:
            worker.join(timeout=30)
            assert worker.exitcode == 0
        lines = _lines(journal.path)
        records = [json.loads(line) for line in lines]  # no torn lines
        assert len(records) == 1 + 25 + 3 * 25
        by_writer = {}
        for record in records:
            by_writer.setdefault(record["who"], []).append(record["i"])
        for n in range(3):
            assert sorted(by_writer[f"child{n}"]) == list(range(25))
        assert sorted(by_writer["parent"]) == list(range(-1, 25))
        journal.close()

    def test_child_does_not_flush_inherited_partial_line(self, tmp_path):
        journal = WorkloadJournal(tmp_path / "partial.jsonl")
        journal.append({"who": "parent", "i": 0})
        # Simulate a fork landing mid-append: a partial line sits in
        # the parent handle's buffer, unflushed.
        with journal._lock:
            journal._file().write('{"partial": ')
        worker = FORK.Process(target=_child_appends,
                              args=(journal, 5, "child"))
        worker.start()
        worker.join(timeout=30)
        assert worker.exitcode == 0
        # Parent completes its interrupted line afterwards.
        with journal._lock:
            handle = journal._file()
            handle.write('"done"}\n')
            handle.flush()
        records = [json.loads(line) for line in _lines(journal.path)]
        assert len(records) == 1 + 5 + 1  # partial line written ONCE
        assert sum(1 for r in records if "partial" in r) == 1
        journal.close()

    def test_child_reopen_is_counted(self, tmp_path):
        journal = WorkloadJournal(tmp_path / "opens.jsonl")
        journal.append({"i": 0})
        assert journal.opens == 1

        def child():
            journal.append({"i": 1})
            # The child reopened for itself: the inherited count (1)
            # plus its own post-fork open.
            os._exit(0 if journal.opens == 2 else 17)

        worker = FORK.Process(target=child)
        worker.start()
        worker.join(timeout=30)
        assert worker.exitcode == 0
        assert journal.opens == 1  # parent unchanged
        journal.close()


class TestSlowLogForkSafety:
    def test_forked_recorders_append_valid_records(self, tmp_path):
        log = SlowQueryLog(tmp_path / "slow.jsonl", threshold_ms=0.0,
                           exemplar_rate=1000)

        def child():
            for i in range(10):
                log.maybe_record(query=f"child q{i}", plan=None,
                                 wall_ns=10_000)
            log.close()
            os._exit(0)

        workers = [FORK.Process(target=child) for _ in range(2)]
        for worker in workers:
            worker.start()
        for i in range(10):
            log.maybe_record(query=f"parent q{i}", plan=None,
                             wall_ns=10_000)
        for worker in workers:
            worker.join(timeout=30)
            assert worker.exitcode == 0
        records = [json.loads(line) for line in _lines(log.path)]
        assert len(records) == 30
        assert sum(1 for r in records
                   if r["query"].startswith("parent")) == 10
        log.close()
