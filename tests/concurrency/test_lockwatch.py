"""LockOrderWatchdog unit behaviour: proxies, orders, inversions."""

from __future__ import annotations

import threading

from repro.obs.lockwatch import (
    LockOrderWatchdog,
    WatchedLock,
    watch_session,
)
from repro.service.cache import PlanCache


class TestWatchedLock:
    def test_forwards_lock_protocol(self):
        watchdog = LockOrderWatchdog()
        lock = watchdog.wrap(threading.Lock(), "t.lock")
        assert not lock.locked()
        with lock:
            assert lock.locked()
        assert not lock.locked()
        assert lock.acquire(blocking=False)
        lock.release()

    def test_wrap_is_idempotent(self):
        watchdog = LockOrderWatchdog()
        lock = watchdog.wrap(threading.Lock(), "t.lock")
        assert watchdog.wrap(lock, "t.lock") is lock

    def test_rlock_reentrancy_records_no_self_edge(self):
        watchdog = LockOrderWatchdog()
        lock = watchdog.wrap(threading.RLock(), "t.rlock")
        with lock:
            with lock:
                pass
        assert watchdog.observed_edges() == set()
        assert watchdog.violations() == []


class TestOrderRecording:
    def test_nested_order_observed(self):
        watchdog = LockOrderWatchdog()
        outer = watchdog.wrap(threading.Lock(), "outer")
        inner = watchdog.wrap(threading.Lock(), "inner")
        with outer:
            with inner:
                pass
        assert watchdog.observed_edges() == {("outer", "inner")}
        assert watchdog.violations() == []

    def test_inversion_detected(self):
        watchdog = LockOrderWatchdog()
        a = watchdog.wrap(threading.Lock(), "a")
        b = watchdog.wrap(threading.Lock(), "b")
        with a:
            with b:
                pass
        with b:
            with a:
                pass
        [violation] = watchdog.violations()
        assert {violation.edge, violation.inverse} == \
            {("a", "b"), ("b", "a")}
        assert "inversion" in violation.describe()

    def test_inversion_across_threads_detected(self):
        watchdog = LockOrderWatchdog()
        a = watchdog.wrap(threading.Lock(), "a")
        b = watchdog.wrap(threading.Lock(), "b")

        def forward():
            with a:
                with b:
                    pass

        thread = threading.Thread(target=forward, daemon=True)
        thread.start()
        thread.join(timeout=30.0)
        with b:
            with a:
                pass
        assert len(watchdog.violations()) == 1

    def test_crosscheck_against_static_graph(self):
        watchdog = LockOrderWatchdog(static_edges={("a", "b")})
        a = watchdog.wrap(threading.Lock(), "a")
        b = watchdog.wrap(threading.Lock(), "b")
        c = watchdog.wrap(threading.Lock(), "c")
        with a:
            with b:
                pass
        with a:
            with c:
                pass
        assert watchdog.novel_edges() == {("a", "c")}

    def test_no_static_graph_means_no_crosscheck(self):
        watchdog = LockOrderWatchdog()
        a = watchdog.wrap(threading.Lock(), "a")
        b = watchdog.wrap(threading.Lock(), "b")
        with a:
            with b:
                pass
        assert watchdog.novel_edges() == set()


class TestInPlaceWatching:
    def test_watch_and_unwatch_restore_attribute(self):
        cache = PlanCache(capacity=4)
        original = cache._lock
        watchdog = LockOrderWatchdog()
        proxy = watchdog.watch(cache, "_lock", "PlanCache._lock")
        assert isinstance(cache._lock, WatchedLock)
        assert cache._lock is proxy
        assert proxy.wrapped is original
        cache.put("q", object())
        assert cache.get("q") is not None
        watchdog.unwatch_all()
        assert cache._lock is original

    def test_context_manager_unwatches(self):
        cache = PlanCache(capacity=4)
        original = cache._lock
        with LockOrderWatchdog() as watchdog:
            watchdog.watch(cache, "_lock", "PlanCache._lock")
            assert cache._lock is not original
        assert cache._lock is original

    def test_watch_session_covers_serving_locks(self):
        from repro.service.session import Session
        from repro.storage.loader import load_document
        from repro.xmark.generator import generate_xmark
        session = Session(
            load_document(generate_xmark(factor=0.003, seed=7)))
        watchdog = LockOrderWatchdog()
        with watchdog:
            watch_session(watchdog, session)
            assert isinstance(session.plan_cache._lock, WatchedLock)
            assert isinstance(session.block_cache._lock, WatchedLock)
            assert isinstance(session.metrics._lock, WatchedLock)
        assert not isinstance(session.plan_cache._lock, WatchedLock)
