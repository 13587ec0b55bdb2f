"""Concurrency tests: one Session shared by worker threads.

The serving contract: ``execute_many`` over N threads returns exactly
what serial execution returns, and no metric increment is ever lost —
the session's registry, the caches and the workload journal are all
thread-safe.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.service.session import Database, Session
from repro.xmark.generator import generate_xmark
from repro.xmark.queries import query_text

QUERY_IDS = ("Q1", "Q2", "Q5", "Q8")


@pytest.fixture(scope="module")
def repository():
    from repro.storage.loader import load_document
    return load_document(generate_xmark(factor=0.005, seed=42))


@pytest.fixture(scope="module")
def serial_results(repository):
    session = Session(repository)
    return {qid: session.execute(query_text(qid)).to_xml()
            for qid in QUERY_IDS}


class TestExecuteMany:
    def test_parallel_matches_serial_on_xmark(self, repository,
                                              serial_results):
        session = Session(repository)
        queries = [query_text(qid) for qid in QUERY_IDS] * 3
        results = session.execute_many(queries, max_workers=4)
        assert len(results) == len(queries)
        expected = [serial_results[qid] for qid in QUERY_IDS] * 3
        assert [r.to_xml() for r in results] == expected

    def test_no_lost_session_counter_increments(self, repository):
        session = Session(repository)
        queries = [query_text(qid) for qid in QUERY_IDS] * 5
        session.execute_many(queries, max_workers=4)
        counters = session.metrics.counters()
        assert counters["session.executions"] == len(queries)
        assert counters["session.prepares"] == len(queries)
        # Every textual prepare either missed (first time) or hit.
        assert counters["cache.plan.hit"] \
            + counters["cache.plan.miss"] == len(queries)
        assert counters["cache.plan.miss"] == len(QUERY_IDS)

    def test_threads_share_warm_plan_cache(self, repository):
        session = Session(repository)
        session.execute_many([query_text("Q1")] * 8, max_workers=4)
        counters = session.metrics.counters()
        assert counters["cache.plan.miss"] == 1
        assert counters["cache.plan.hit"] == 7

    def test_concurrent_sessions_share_database_caches(self):
        database = Database.from_xml(
            generate_xmark(factor=0.003, seed=7))
        sessions = [database.session() for _ in range(4)]

        def run(session):
            return session.execute(query_text("Q1")).to_xml()

        with ThreadPoolExecutor(max_workers=4) as pool:
            outputs = list(pool.map(run, sessions))
        assert len(set(outputs)) == 1
        counters = database.metrics.counters()
        assert counters["cache.plan.hit"] \
            + counters["cache.plan.miss"] == 4

    def test_recording_batch_journals_every_run(self, repository,
                                                tmp_path):
        session = Session(repository,
                          journal=tmp_path / "batch.jsonl")
        queries = [query_text(qid) for qid in QUERY_IDS] * 2
        session.execute_many(queries, max_workers=4)
        journal = session.recorder.journal
        assert session.recorder.records_written == len(queries)
        assert len(journal.records()) == len(queries)
        assert journal.opens == 1

    def test_per_run_enabled_telemetry_in_parallel(self, repository,
                                                   serial_results):
        # The slow log's sampling is what hands a batch per-run
        # telemetries; rate 1 traces every run, serialized on the
        # session's activation lock.
        from repro.service.slowlog import SlowQueryLog
        session = Session(repository,
                          slow_log=SlowQueryLog(exemplar_rate=1))
        results = session.execute_many(
            [query_text("Q1")] * 6, max_workers=3)
        assert len({id(r.telemetry) for r in results}) == 6
        assert all(r.telemetry.stats is r.stats for r in results)
        assert [r.to_xml() for r in results] == \
            [serial_results["Q1"]] * 6


class TestRegistryThreadSafety:
    def test_no_lost_counter_adds(self):
        registry = MetricsRegistry()
        threads = 8
        per_thread = 2000

        def worker():
            for _ in range(per_thread):
                registry.add("stress.counter")

        pool = [threading.Thread(target=worker)
                for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert registry.counters()["stress.counter"] == \
            threads * per_thread

    def test_concurrent_get_or_create_yields_one_counter(self):
        registry = MetricsRegistry()
        seen = []

        def worker():
            seen.append(registry.counter("shared.name"))

        pool = [threading.Thread(target=worker) for _ in range(16)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert len({id(counter) for counter in seen}) == 1
