"""Tests for the serving layer's plan and block caches."""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.service.cache import (
    BlockCache,
    PlanCache,
    normalize_query_text,
)


class TestNormalizeQueryText:
    def test_collapses_whitespace_runs(self):
        assert normalize_query_text("for  $x in\n  /a \t return $x") \
            == "for $x in /a return $x"

    def test_strips_ends(self):
        assert normalize_query_text("  /a/b  ") == "/a/b"

    def test_identity_on_normalized_text(self):
        text = "for $x in /a return $x"
        assert normalize_query_text(text) == text


class TestPlanCache:
    def test_miss_then_hit(self):
        metrics = MetricsRegistry()
        cache = PlanCache(4, metrics=metrics)
        assert cache.get("q") is None
        cache.put("q", "plan")
        assert cache.get("q") == "plan"
        counters = metrics.counters()
        assert counters["cache.plan.miss"] == 1
        assert counters["cache.plan.hit"] == 1

    def test_lru_eviction_order(self):
        metrics = MetricsRegistry()
        cache = PlanCache(2, metrics=metrics)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b becomes LRU
        cache.put("c", 3)
        assert "b" not in cache
        assert "a" in cache and "c" in cache
        assert metrics.counters()["cache.plan.evictions"] == 1

    def test_invalidate_single_key(self):
        cache = PlanCache(4)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.invalidate("a")
        assert "a" not in cache and "b" in cache

    def test_invalidate_all(self):
        cache = PlanCache(4)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.invalidate()
        assert len(cache) == 0

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            PlanCache(0)


class _Plan:
    """A stand-in prepared plan."""

    def __init__(self, has_errors: bool = False):
        self.has_errors = has_errors


class TestPlanCacheSingleFlight:
    """Threads missing one key together prepare it once."""

    def test_a_waiting_thread_gets_the_first_threads_plan(self):
        import threading
        import time
        metrics = MetricsRegistry()
        cache = PlanCache(4, metrics=metrics)
        started, release = threading.Event(), threading.Event()
        plan, calls, results = _Plan(), [], []

        def prepare():
            calls.append(threading.current_thread().name)
            started.set()
            assert release.wait(5)
            return plan

        def ask():
            results.append(cache.get_or_prepare("q", prepare))

        threads = [threading.Thread(target=ask) for _ in range(2)]
        threads[0].start()
        assert started.wait(5)
        threads[1].start()
        time.sleep(0.05)  # the second thread now waits on the first
        release.set()
        for thread in threads:
            thread.join(5)
        assert results == [plan, plan] and len(calls) == 1
        counters = metrics.counters()
        assert (counters["cache.plan.miss"], counters["cache.plan.hit"]) \
            == (1, 1)
        assert cache.get_or_prepare("q", prepare) is plan
        assert len(calls) == 1

    def test_failed_plans_and_errors_are_not_cached(self):
        cache = PlanCache(4)
        failed = _Plan(has_errors=True)
        assert cache.get_or_prepare("q", lambda: failed) is failed
        assert "q" not in cache

        def broken():
            raise ValueError("cannot prepare")

        with pytest.raises(ValueError):
            cache.get_or_prepare("r", broken)
        plan = _Plan()
        assert cache.get_or_prepare("r", lambda: plan) is plan
        assert "r" in cache


class TestBlockCache:
    def test_miss_then_hit_and_bytes(self):
        metrics = MetricsRegistry()
        cache = BlockCache(1000, metrics=metrics)
        key = ("value", "/a/#text", 0)
        assert cache.get(key) is None
        cache.put(key, "decoded", 100)
        assert cache.get(key) == "decoded"
        assert cache.used_bytes == 100
        counters = metrics.counters()
        assert counters["cache.block.miss"] == 1
        assert counters["cache.block.hit"] == 1

    def test_budget_eviction_is_lru(self):
        metrics = MetricsRegistry()
        cache = BlockCache(250, metrics=metrics)
        cache.put(("v", 1), "one", 100)
        cache.put(("v", 2), "two", 100)
        cache.get(("v", 1))  # refresh; ("v", 2) becomes LRU
        cache.put(("v", 3), "three", 100)
        assert cache.get(("v", 2)) is None
        assert cache.get(("v", 1)) == "one"
        assert cache.get(("v", 3)) == "three"
        assert cache.used_bytes == 200
        assert metrics.counters()["cache.block.evictions"] == 1

    def test_oversize_entry_not_cached(self):
        metrics = MetricsRegistry()
        cache = BlockCache(50, metrics=metrics)
        cache.put(("v", 1), "x" * 100, 100)
        assert len(cache) == 0
        assert metrics.counters()["cache.block.oversize"] == 1

    def test_replacing_entry_recharges_bytes(self):
        cache = BlockCache(1000)
        cache.put(("v", 1), "a", 100)
        cache.put(("v", 1), "bb", 200)
        assert cache.used_bytes == 200
        assert len(cache) == 1

    def test_invalidate_resets_bytes(self):
        cache = BlockCache(1000)
        cache.put(("v", 1), "a", 100)
        cache.invalidate()
        assert len(cache) == 0
        assert cache.used_bytes == 0

    def test_falsy_values_are_cache_hits(self):
        # An empty decoded string is a legitimate cached block.
        cache = BlockCache(1000)
        cache.put(("v", 1), "", 10)
        assert cache.get(("v", 1)) == ""

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            BlockCache(0)
