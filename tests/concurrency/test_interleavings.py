"""Seeded interleaving schedules over the whole serving surface.

Each test drives Session / PlanCache / BlockCache / WorkloadJournal /
MetricsRegistry from multiple workers under the deterministic
:class:`~tests.concurrency.harness.InterleavingScheduler`, with a
:class:`~tests.concurrency.harness.NestingProbe` on the serving locks.
The assertions are the Tier-C contract at run time: no thread takes
one of those locks while it holds another, and no deadlock (the
harness raises instead of hanging; CI adds ``faulthandler`` plus a
hard timeout on top).  The shard coordinator's locks get the same
probe under real threads.
"""

from __future__ import annotations

import threading

import pytest

from repro.obs.telemetry import Telemetry
from repro.query.options import ExecutionOptions
from repro.service.session import Session
from repro.service.shards import ShardedDatabase
from repro.service.slowlog import SlowQueryLog
from repro.xmark.generator import generate_xmark
from repro.xmark.queries import query_text

from tests.concurrency.harness import InterleavingScheduler, NestingProbe

#: the seeded schedules CI runs; three genuinely different orders.
SEEDS = (11, 23, 37)


@pytest.fixture(scope="module")
def repository():
    from repro.storage.loader import load_document
    return load_document(generate_xmark(factor=0.005, seed=42))


@pytest.fixture(scope="module")
def expected_q1(repository):
    return Session(repository).execute(query_text("Q1")).to_xml()


@pytest.mark.parametrize("seed", SEEDS)
def test_serving_surface_interleaved(seed, repository, expected_q1,
                                     tmp_path):
    # A zero threshold journals every run through the slow log.
    session = Session(repository, slow_log=SlowQueryLog(
        tmp_path / f"stress-{seed}.jsonl", threshold_ms=0.0))
    journal = session.slow_log.journal
    probe = NestingProbe()
    probe.watch(session.plan_cache, "_lock", "PlanCache._lock")
    probe.watch(session.block_cache, "_lock", "BlockCache._lock")
    probe.watch(session.metrics, "_lock", "MetricsRegistry._lock")
    probe.watch(session.slow_log, "_lock", "SlowQueryLog._lock")
    probe.watch(journal, "_lock", "WorkloadJournal._lock")
    outputs: list[str] = []

    def executor(step):
        outputs.append(session.execute(query_text("Q1")).to_xml())
        step()
        outputs.append(session.execute(query_text("Q1")).to_xml())
        step()
        # A traced run: the slow log takes the journal lock as it
        # records it.
        outputs.append(session.execute(
            query_text("Q1"),
            ExecutionOptions(telemetry=Telemetry())).to_xml())

    def invalidator(step):
        session.invalidate_caches()
        step()
        session.plan_cache.invalidate()
        step()
        session.block_cache.invalidate()

    def metrician(step):
        session.metrics.add("stress.ticks")
        step()
        session.metrics.set_gauge("stress.lat", 1.5)
        step()
        session.metrics.counters()
        session.metrics.gauges()

    def journalist(step):
        journal.append({"seed": seed, "op": 1})
        step()
        journal.append({"seed": seed, "op": 2})

    with probe:
        sched = InterleavingScheduler(seed)
        sched.spawn("executor", executor)
        sched.spawn("invalidator", invalidator)
        sched.spawn("metrician", metrician)
        sched.spawn("journalist", journalist)
        steps = sched.run()

    assert steps >= 10  # every worker actually stepped.
    assert outputs == [expected_q1] * 3
    assert probe.nestings == []
    # The journal interleaved whole lines, never torn ones.
    records = journal.records()
    assert {(r["seed"], r["op"]) for r in records
            if "op" in r} >= {(seed, 1), (seed, 2)}
    assert sum(1 for r in records if r.get("query")) == 3


def test_probe_sees_nesting_not_reentry():
    """The probe forwards the lock protocol, records a lock taken
    under another (from any thread), not an ``RLock`` re-entry, and
    puts the real locks back on exit."""
    class Owner:
        def __init__(self):
            self.a = threading.Lock()
            self.b = threading.RLock()

    owner = Owner()
    original = owner.a
    with NestingProbe() as probe:
        probe.watch(owner, "a", "a")
        probe.watch(owner, "b", "b")
        with owner.b:
            with owner.b:
                assert owner.a.acquire(blocking=False)
                owner.a.release()
        assert not owner.a.locked()
        # Another thread holding `a` is no nesting for this one.
        thread = threading.Thread(target=owner.a.acquire)
        thread.start()
        thread.join()
        with owner.b:
            pass
    assert probe.nestings == [("b", "a", "MainThread")]
    assert owner.a is original


@pytest.mark.parametrize("seed", SEEDS)
def test_same_seed_replays_same_schedule(seed):
    """The harness itself is deterministic: the property that turns a
    failing schedule into a pinned regression."""

    def trace_of() -> list[str]:
        log: list[str] = []

        def worker(name):
            def body(step):
                log.append(f"{name}.a")
                step()
                log.append(f"{name}.b")
            return body

        sched = InterleavingScheduler(seed)
        for name in ("w1", "w2", "w3"):
            sched.spawn(name, worker(name))
        sched.run()
        return log

    assert trace_of() == trace_of()


def test_shard_coordinator_never_nests_locks(repository, expected_q1):
    """DESIGN §9b: ``_pool`` is never held while taking a worker's
    lock, and no coordinator lock is held while taking another."""
    texts = [query_text(qid) for qid in ("Q1", "Q8", "Q14")]
    # The probe outlives the database, so close() runs watched too.
    with NestingProbe() as probe, ShardedDatabase(
            repository, shard_count=2, queries=texts) as database:
        probe.watch(database, "_pool", "ShardedDatabase._pool")
        probe.watch(database, "_routes_lock",
                    "ShardedDatabase._routes_lock")
        for worker in database._workers:
            probe.watch(worker, "lock", "ShardWorker.lock")
        answers: dict[str, list[str]] = {}

        def client(name: str) -> None:
            answers[name] = [database.execute(text, client=name).to_xml()
                             for text in texts * 3]

        threads = [threading.Thread(target=client, args=(f"c{i}",))
                   for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        database.invalidate_caches()
    assert len(answers) == 2
    assert {xml for run in answers.values() for xml in run[::3]} \
        == {expected_q1}
    assert probe.nestings == []
