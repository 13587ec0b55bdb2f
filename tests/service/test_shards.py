"""Sharded serving plane: parity, admission, routing, shutdown.

The load-bearing guarantee is the differential oracle: for every
XMark query, sharded execution (coordinator -> forked worker ->
compressed result frame back) is **byte-identical** to single-process
``Session.execute`` — at shard counts 1, 2 and 4.
"""

import multiprocessing
import os

import pytest

from repro.errors import AdmissionError, QuerySyntaxError, ShardError
from repro.partitioning.sharding import ShardAssignment
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


@pytest.fixture(scope="module")
def repository():
    return load_document(generate_xmark(factor=0.002, seed=1))


@pytest.fixture(scope="module")
def oracle(repository):
    """Single-process reference output for every XMark query."""
    session = Session(repository)
    return {qid: session.execute(text).to_xml()
            for qid, text in QUERIES.items()}


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
        """``repro top`` against a coordinator's endpoint reads the
        rows ``slo_report`` computes from the coordinator's registry:
        served count, per-class end-to-end latencies, and the
        workers' cache counters summed into one hit rate."""
        from repro.service.slo import slo_report
        from repro.service.top import ScrapeSource, render_top
        texts = [QUERIES[qid] for qid in ("Q1", "Q5", "Q8", "Q1", "Q5")]
        with ShardedDatabase(repository, shard_count=2) as database:
            with database.serve_telemetry() as server:
                for text in texts + texts:
                    database.execute(text)
                database.gather_metrics()
                snapshot = ScrapeSource(server.url).sample()
                report = slo_report(database.metrics)
        assert snapshot["served"] == 10
        assert snapshot["caches"] == report["caches"]
        assert report["caches"]["plan"]["hit"] == 7  # 3 texts planned
        assert sum(row["count"]
                   for row in report["classes"].values()) == 10
        assert set(snapshot["classes"]) == set(report["classes"])
        text = render_top(snapshot)
        assert "served 10" in text
        assert "plan 70.0% (7/10)" in text
        assert "no traffic" not in text
        for query_class, row in report["classes"].items():
            scraped = snapshot["classes"][query_class]
            # the rate is over the real clock: it moves between reads
            assert scraped.pop("qps") == pytest.approx(
                row.pop("qps"), rel=0.05)
            assert scraped == row

    def test_route_carries_the_query_class(self, sharded):
        from repro.service.slo import classify_query
        for text in QUERIES.values():
            assert sharded.route(text).query_class == \
                classify_query(parse_query(text))
        assert sharded.route(QUERIES["Q4"]).query_class == "point"
        assert sharded.route(QUERIES["Q4"]) \
            is sharded.route(QUERIES["Q4"])  # classified once

    def test_invalidate_reaches_workers(self, sharded):
        sharded.execute(QUERIES["Q1"], client="inv")
        sharded.invalidate_caches()
        # Still serves correctly after a cold restart of the caches.
        received = sharded.execute(QUERIES["Q1"], client="inv")
        assert received.to_xml() is not None
