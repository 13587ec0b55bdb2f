"""Cache invalidation under load (ISSUE 7 satellite).

``invalidate_caches()`` racing a 4-worker ``execute_many`` must
neither deadlock nor serve stale plan/block entries: every result must
equal serial execution, the batch must finish in bounded time, and a
final invalidation must leave both caches genuinely empty.
"""

from __future__ import annotations

import threading

import pytest

from repro.service.session import Session
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


def test_invalidate_races_execute_many(repository, serial_results):
    session = Session(repository)
    queries = [query_text(qid) for qid in QUERY_IDS] * 6
    stop = threading.Event()
    invalidations = 0

    def invalidator() -> None:
        nonlocal invalidations
        while not stop.is_set():
            session.invalidate_caches()
            invalidations += 1

    thread = threading.Thread(target=invalidator,
                              name="invalidator", daemon=True)
    thread.start()
    try:
        results = session.execute_many(queries, max_workers=4)
    finally:
        stop.set()
        thread.join(timeout=60.0)
    assert not thread.is_alive(), \
        "invalidator thread wedged: deadlock with execute_many"
    assert invalidations > 0

    # Correctness under invalidation churn: every result matches
    # serial execution — a stale plan or block would diverge.
    expected = [serial_results[qid] for qid in QUERY_IDS] * 6
    assert [r.to_xml() for r in results] == expected

    # Accounting stayed coherent: every prepare either hit or missed.
    counters = session.metrics.counters()
    assert counters["session.executions"] == len(queries)
    # (An invalidator that wins every race leaves no hit counted.)
    assert counters.get("cache.plan.hit", 0) + \
        counters.get("cache.plan.miss", 0) == len(queries)

    # A final invalidation leaves nothing resident.
    session.invalidate_caches()
    assert len(session.plan_cache) == 0
    assert len(session.block_cache) == 0
    assert session.block_cache.used_bytes == 0


def test_invalidated_entries_are_rebuilt_not_served(repository):
    """After an invalidation, the next execution re-derives the plan
    (a miss), it does not resurrect the dropped entry."""
    session = Session(repository)
    session.execute(query_text("Q1"))
    session.execute(query_text("Q1"))
    counters = session.metrics.counters()
    assert counters["cache.plan.miss"] == 1
    assert counters["cache.plan.hit"] == 1

    session.invalidate_caches()
    session.execute(query_text("Q1"))
    counters = session.metrics.counters()
    assert counters["cache.plan.miss"] == 2
