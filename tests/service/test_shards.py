"""Sharded serving plane: parity, admission, routing, shutdown.

The load-bearing guarantee is the differential oracle: for every
XMark query, sharded execution (coordinator -> forked worker ->
compressed result frame back) is **byte-identical** to single-process
``Session.execute`` — at shard counts 1, 2 and 4.
"""

import json
import multiprocessing
import os
import signal
import sys
import threading
import time
from urllib.request import urlopen

import pytest

from repro.errors import AdmissionError, QuerySyntaxError, ShardError
from repro.partitioning.sharding import ShardAssignment
from repro.service.cache import DEFAULT_PLAN_CAPACITY
from repro.service.session import Session
from repro.service.shards import (
    AdmissionController,
    Route,
    ShardedDatabase,
    query_route_keys,
    resolve_route,
)
from repro.query.parser import parse_query
from repro.storage.loader import load_document
from repro.xmark.generator import generate_xmark
from repro.xmark.queries import XMARK_QUERIES, query_text

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="sharded serving requires the fork start method")

QUERIES = {qid: query_text(qid) for qid in XMARK_QUERIES}

#: ≈ 0.4 s on the ``larger`` document; routed like Q1 (/site/people).
#: a cross product checked per binding (``where $b``): a row plan would
#: count it off the two group sizes at once.
SLOW = ("count(for $a in /site/people//*, $b in /site/people//* "
        "where $b return 1)")


def wait_for(predicate) -> None:
    """Spin until ``predicate()`` holds; the deadline only stops a
    hang, it is not what the test measures."""
    deadline = time.monotonic() + 60.0
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


@pytest.fixture(scope="module")
def repository():
    return load_document(generate_xmark(factor=0.002, seed=1))


@pytest.fixture(scope="module")
def oracle(repository):
    """Single-process reference output for every XMark query."""
    session = Session(repository)
    return {qid: session.execute(text).to_xml()
            for qid, text in QUERIES.items()}


@pytest.fixture(scope="module")
def larger():
    """Big enough that ``SLOW`` keeps a worker busy for a while."""
    return load_document(generate_xmark(factor=0.01, seed=5))


@pytest.fixture(scope="module", params=[1, 2, 4])
def sharded(repository, request):
    with ShardedDatabase(repository, shard_count=request.param,
                         queries=list(QUERIES.values())) as database:
        yield database


class TestParity:
    def test_every_xmark_query_byte_identical(self, sharded, oracle):
        for qid, text in QUERIES.items():
            received = sharded.execute(text, client="parity")
            assert received.to_xml() == oracle[qid], \
                f"{qid} diverged at {sharded.shard_count} shards"

    def test_merged_stats_sane(self, sharded, oracle):
        totals = {}
        for text in QUERIES.values():
            received = sharded.execute(text, client="stats")
            for name, value in received.stats.as_dict().items():
                assert value >= 0
                totals[name] = totals.get(name, 0) + value
        assert totals["decompressions"] > 0
        assert totals["nodes_visited"] > 0

    def test_execute_many_preserves_order(self, sharded, oracle):
        ids = list(QUERIES)
        received = sharded.execute_many([QUERIES[qid] for qid in ids],
                                        client="batch")
        for qid, result in zip(ids, received):
            assert result.to_xml() == oracle[qid]

    def test_shipping_accounting_recorded(self, sharded):
        counters = sharded.metrics.counters()
        assert counters.get("shipping.wire_bytes", 0) > 0
        assert counters.get("shipping.plain_bytes", 0) > 0


class TestRouting:
    def _assignment(self):
        return ShardAssignment(
            2, [["/site/people"], ["/site/open_auctions",
                                   "/site/closed_auctions"]],
            [1.0, 2.0])

    def test_single_subtree_query_not_cross_shard(self):
        keys = query_route_keys(parse_query(
            "for $p in /site/people/person return $p/name"))
        assert keys == ["/site/people"]
        route = resolve_route(self._assignment(), keys, "q")
        assert route == Route(0, False, ("/site/people",))

    def test_join_query_is_cross_shard(self):
        keys = query_route_keys(parse_query(
            "for $p in /site/people/person, "
            "$a in /site/open_auctions/open_auction "
            "where $a/@id = $p/@id return $p/name"))
        assert set(keys) == {"/site/people", "/site/open_auctions"}
        route = resolve_route(self._assignment(), keys, "q")
        assert route.primary == 0  # the driving for-clause's shard
        assert route.cross_shard is True

    def test_prefix_root_touches_every_owner(self):
        keys = query_route_keys(parse_query("/site"))
        assert keys == ["/site"]
        route = resolve_route(self._assignment(), keys, "q")
        assert route.cross_shard is True

    def test_descendant_root_falls_back_to_hash(self):
        keys = query_route_keys(parse_query("//item"))
        assert keys == []
        route = resolve_route(self._assignment(), keys, "fallback")
        assert route.cross_shard is False
        assert route == resolve_route(self._assignment(), keys,
                                      "fallback")

    def test_route_cache_is_stable(self, sharded):
        text = QUERIES["Q1"]
        assert sharded.route(text) is sharded.route(text)

    def test_route_memo_is_bounded(self, repository):
        """The memo keeps the ``DEFAULT_PLAN_CAPACITY`` most recently
        routed texts; older ones are routed afresh."""
        database = ShardedDatabase(repository, shard_count=2)
        texts = [f"/site/people/person[{i}]/name"
                 for i in range(DEFAULT_PLAN_CAPACITY + 10)]
        first = database.route(texts[0])
        for text in texts:
            database.route(text)
        assert len(database._routes) <= DEFAULT_PLAN_CAPACITY
        assert database.route(texts[0]) is not first
        assert database.route(texts[-1]) is database.route(texts[-1])
        database.invalidate_caches()
        assert len(database._routes) == 0


class TestAdmission:
    def test_global_limit(self):
        admission = AdmissionController(max_inflight=2, per_client=2)
        admission.acquire("a")
        admission.acquire("b")
        with pytest.raises(AdmissionError):
            admission.acquire("c")
        admission.release("a")
        admission.acquire("c")
        assert admission.inflight == 2

    def test_per_client_quota(self):
        admission = AdmissionController(max_inflight=10, per_client=1)
        admission.acquire("a")
        with pytest.raises(AdmissionError):
            admission.acquire("a")
        admission.acquire("b")  # other clients unaffected
        admission.release("a")
        admission.acquire("a")

    def test_release_never_goes_negative(self):
        admission = AdmissionController()
        admission.release("ghost")
        assert admission.inflight == 0

    def test_front_door_refuses_before_touching_workers(self,
                                                        repository):
        # An unstarted coordinator: admission must reject before any
        # worker (there are none) is involved.
        admission = AdmissionController(max_inflight=1, per_client=1)
        database = ShardedDatabase(repository, shard_count=2,
                                   admission=admission)
        admission.acquire("elsewhere")
        with pytest.raises(AdmissionError):
            database.execute(QUERIES["Q1"], client="me")

    def test_quota_scoped_to_client(self, sharded):
        sharded.admission.acquire("greedy")
        held = sharded.admission.per_client - 1
        for _ in range(held):
            sharded.admission.acquire("greedy")
        try:
            with pytest.raises(AdmissionError):
                sharded.execute(QUERIES["Q1"], client="greedy")
            result = sharded.execute(QUERIES["Q1"], client="modest")
            assert len(result.values) >= 0
        finally:
            for _ in range(held + 1):
                sharded.admission.release("greedy")


class TestWorkerFailures:
    def test_syntax_error_rehydrates_by_type(self, sharded):
        worker = sharded._workers[0]
        with pytest.raises(QuerySyntaxError):
            worker.request(("execute", "for $x in ((("))
        # The worker survives a failed query.
        assert worker.request(("ping",)) == worker.process.pid

    def test_coordinator_rejects_unknown_op_as_shard_error(self,
                                                           sharded):
        with pytest.raises(ShardError):
            sharded._workers[0].request(("no-such-op",))

    def test_late_reply_never_answers_the_next_request(self,
                                                       repository):
        """Request 1 times out and its answer arrives later; request 2
        waits behind it and gets its own answer, never request 1's."""
        # 410 x 410 x 2 bindings: about 0.5 s at this factor, so the
        # late reply is certain to arrive while the ping waits.
        slow = "count(for $a in //*, $b in //*, $c in (1, 2) return 1)"
        with ShardedDatabase(repository, shard_count=1) as database:
            worker = database._workers[0]
            with pytest.raises(ShardError, match="did not reply"):
                worker.request(("execute", slow), timeout=0.05)
            assert worker.request(("ping",), timeout=30.0) \
                == worker.process.pid

    def test_cross_shard_counter_advances(self, repository):
        assignment = ShardAssignment(
            2, [["/site/people"],
                ["/site/open_auctions", "/site/closed_auctions",
                 "/site/regions", "/site/categories"]],
            [1.0, 4.0])
        with ShardedDatabase(repository,
                             assignment=assignment) as database:
            database.execute(QUERIES["Q1"])   # people only
            before = database.metrics.counters().get(
                "coordinator.cross_shard_queries", 0)
            database.execute(QUERIES["Q8"])   # people x auctions join
            after = database.metrics.counters().get(
                "coordinator.cross_shard_queries", 0)
        assert before == 0
        assert after == 1


class TestLifecycle:
    def test_clean_shutdown_leaves_no_orphans(self, repository):
        database = ShardedDatabase(repository, shard_count=2).start()
        processes = [worker.process
                     for worker in database._workers]
        pids = [process.pid for process in processes]
        assert database.ready()
        database.close()
        for process in processes:
            assert not process.is_alive()
            assert process.exitcode == 0
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_gather_metrics_folds_per_shard_counters(self, sharded):
        sharded.execute_many(list(QUERIES.values()), client="fold")
        sharded.gather_metrics()
        counters = sharded.metrics.counters()
        executions = [
            counters.get(f"shard.{i}.session.executions", 0)
            for i in range(sharded.shard_count)]
        assert sum(executions) > 0
        gauges = sharded.metrics.gauges()
        for shard in range(sharded.shard_count):
            assert gauges.get(f"shard.{shard}.shard.pid", 0) > 0

    def test_console_sees_the_sharded_plane(self, repository):
        """The coordinator's endpoint carries the workers' folded cache
        counters: three texts each served four times or twice over two
        shards plan three times and hit seven times, wherever the pool
        put each run."""
        texts = [QUERIES[qid] for qid in ("Q1", "Q5", "Q8", "Q1", "Q5")]
        with ShardedDatabase(repository, shard_count=2) as database:
            with database.serve_telemetry() as server:
                for text in texts + texts:
                    database.execute(text)
                database.gather_metrics()
                with urlopen(server.url + "/metrics",
                             timeout=5.0) as response:
                    lines = response.read().decode().splitlines()
        counters = database.metrics.counters()
        assert counters["session.executions"] == 10
        folded = {outcome: sum(
            counters.get(f"shard.{i}.cache.plan.{outcome}", 0)
            for i in range(2)) for outcome in ("hit", "miss")}
        assert folded == {"hit": 7, "miss": 3}  # 3 texts planned
        assert 'repro_counter{name="session.executions"} 10' in lines
        rendered = {outcome: sum(
            int(line.rsplit(" ", 1)[1]) for line in lines
            if line.startswith(f'repro_counter{{name="cache.plan.'
                               f'{outcome}",shard="'))
            for outcome in ("hit", "miss")}
        assert rendered == folded

    def test_coordinator_keeps_no_slow_log(self, repository):
        """Only worker sessions run queries, so the coordinator has no
        slow log to offer: ``/slowlog`` says so."""
        with pytest.raises(TypeError):
            ShardedDatabase(repository, shard_count=1, slow_log=None)
        with ShardedDatabase(repository, shard_count=1) as database:
            database.execute(QUERIES["Q1"])
            with database.serve_telemetry() as server:
                with urlopen(server.url + "/slowlog",
                             timeout=5.0) as response:
                    document = json.loads(response.read())
        assert document == {"enabled": False, "records": []}

    def test_coordinator_registry_holds_no_histograms(self, sharded):
        sharded.execute(QUERIES["Q1"], client="hist")
        sharded.execute_many([QUERIES["Q1"], QUERIES["Q5"]],
                             client="hist")
        sharded.gather_metrics()
        names = [*sharded.metrics.counters(), *sharded.metrics.gauges()]
        assert names and not [name for name in names
                              if {"span", "op"} & set(name.split("."))]

    def test_invalidate_reaches_workers(self, sharded):
        sharded.execute(QUERIES["Q1"], client="inv")
        sharded.invalidate_caches()
        # Still serves correctly after a cold restart of the caches.
        received = sharded.execute(QUERIES["Q1"], client="inv")
        assert received.to_xml() is not None


class TestWorkerPool:
    def test_idle_worker_answers_while_routed_one_is_busy(self, larger):
        """Head-of-line blocking: Q1 must not queue behind a slow query
        routed to the same shard while the other worker is idle."""
        q1 = QUERIES["Q1"]
        with ShardedDatabase(larger, shard_count=2) as database:
            primary = database.route(q1).primary
            assert database.route(SLOW).primary == primary
            for worker in database._workers:  # both warm for Q1
                worker.request(("execute", q1))
            slow_done = threading.Event()
            errors = []

            def run_slow() -> None:
                try:
                    database.execute(SLOW)
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)
                slow_done.set()

            thread = threading.Thread(target=run_slow)
            thread.start()
            wait_for(database._workers[primary].lock.locked)
            received = database.execute(q1)
            answered_first = not slow_done.is_set()
            thread.join(60.0)
        assert not thread.is_alive()
        assert errors == []
        assert answered_first, "Q1 waited behind the slow query"
        assert received.to_xml() == Session(larger).execute(q1).to_xml()

    def test_pool_loses_no_worker_under_contention(self, repository,
                                                   oracle):
        """More callers than workers and cores, switching often: every
        answer is right and both workers end idle in the pool."""
        ids = list(QUERIES) * 2
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ShardedDatabase(repository, shard_count=2) as database:
                errors = []

                def run(offset: int) -> None:
                    for qid in ids[offset:] + ids[:offset]:
                        received = database.execute(QUERIES[qid])
                        if received.to_xml() != oracle[qid]:
                            errors.append(qid)

                threads = [threading.Thread(target=run, args=(i,))
                           for i in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(120.0)
                assert not any(thread.is_alive() for thread in threads)
                assert errors == []
                with database._pool:
                    assert sorted(database._idle) == [0, 1]
                database.gather_metrics()
                counters = database.metrics.counters()
                assert sum(counters.get(f"shard.{i}.session.executions",
                                        0) for i in range(2)) \
                    == 6 * len(ids)
        finally:
            sys.setswitchinterval(interval)

    def test_dead_worker_leaves_the_pool(self, larger):
        session = Session(larger)
        with ShardedDatabase(larger, shard_count=2,
                             queries=list(QUERIES.values())) as database:
            victim = database._workers[0]
            os.kill(victim.process.pid, signal.SIGKILL)
            victim.process.join(30.0)
            for qid, text in QUERIES.items():
                assert database.execute(text).to_xml() == \
                    session.execute(text).to_xml(), qid
            assert not database.ready()
            survivor = database._workers[1]
            os.kill(survivor.process.pid, signal.SIGKILL)
            survivor.process.join(30.0)
            with pytest.raises(ShardError, match="no shard worker"):
                database.execute(QUERIES["Q1"])

    def test_query_in_flight_on_a_dying_worker_fails(self, larger):
        """No retry: the query the worker died under fails; the next
        one runs on the survivor."""
        with ShardedDatabase(larger, shard_count=2) as database:
            primary = database.route(SLOW).primary
            victim = database._workers[primary]
            errors = []

            def run_slow() -> None:
                try:
                    database.execute(SLOW)
                except ShardError as exc:
                    errors.append(exc)

            thread = threading.Thread(target=run_slow)
            thread.start()
            wait_for(victim.lock.locked)
            os.kill(victim.process.pid, signal.SIGKILL)
            thread.join(60.0)
            assert not thread.is_alive()
            assert len(errors) == 1
            assert database.execute(QUERIES["Q1"]).to_xml() == \
                Session(larger).execute(QUERIES["Q1"]).to_xml()


class TestPlaneNotRunning:
    def test_execute_before_start_raises_shard_error(self, repository):
        database = ShardedDatabase(repository, shard_count=2)
        with pytest.raises(ShardError, match="no shard worker"):
            database.execute(QUERIES["Q1"])
        assert database.admission.inflight == 0

    def test_execute_after_close_raises_shard_error(self, repository):
        database = ShardedDatabase(repository, shard_count=2).start()
        database.execute(QUERIES["Q1"])
        database.close()
        with pytest.raises(ShardError, match="no shard worker"):
            database.execute(QUERIES["Q1"])

    def test_close_wakes_callers_waiting_for_a_worker(self, larger):
        database = ShardedDatabase(larger, shard_count=1).start()
        outcomes = []

        def run(text: str) -> None:
            try:
                database.execute(text)
                outcomes.append((text, "answered"))
            except ShardError:
                outcomes.append((text, "ShardError"))

        busy = threading.Thread(target=run, args=(SLOW,))
        busy.start()
        wait_for(database._workers[0].lock.locked)
        waiting = threading.Thread(target=run, args=(QUERIES["Q1"],))
        waiting.start()
        wait_for(lambda: len(database._pool._waiters) == 1)
        database.close()
        waiting.join(60.0)
        busy.join(60.0)
        assert not waiting.is_alive() and not busy.is_alive()
        assert sorted(outcomes) == sorted(
            [(SLOW, "answered"), (QUERIES["Q1"], "ShardError")])
