"""Counters, gauges, histograms and the registry."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs.metrics import Counter, Histogram, MetricsRegistry


class _FakeClock:
    """A controllable monotonic clock for window tests."""

    def __init__(self, start_ns=0):
        self.ns = start_ns

    def __call__(self):
        return self.ns

    def advance_s(self, seconds):
        self.ns += int(seconds * 1_000_000_000)


class TestCounter:
    def test_starts_at_zero_and_adds(self):
        cell = Counter("x")
        assert cell.value == 0
        cell.add()
        cell.add(4)
        assert cell.value == 5


class TestHistogram:
    def test_empty_summary(self):
        hist = Histogram("h")
        assert hist.summary() == {"count": 0, "total": 0.0, "max": 0.0,
                                  "rate_per_s": 0.0, "p50": None,
                                  "p95": None, "p99": None}

    def test_nearest_rank_percentiles(self):
        hist = Histogram("h")
        for value in range(1, 101):  # 1..100
            hist.observe(value)
        assert hist.percentile(0) == 1
        assert hist.percentile(100) == 100
        assert abs(hist.percentile(50) - 50) <= 1
        assert abs(hist.percentile(95) - 95) <= 1

    def test_summary_fields(self):
        hist = Histogram("h")
        for value in (3, 1, 2):
            hist.observe(value)
        summary = hist.summary()
        assert summary["count"] == 3
        assert summary["total"] == 6
        assert summary["max"] == 3
        assert summary["p50"] == 2

    def test_order_independent(self):
        a, b = Histogram("a"), Histogram("b")
        for value in (5, 1, 9, 3):
            a.observe(value)
        for value in (9, 5, 3, 1):
            b.observe(value)
        assert a.summary() == {**b.summary()}


class TestMetricsRegistry:
    def test_counter_get_or_create_returns_same_cell(self):
        registry = MetricsRegistry()
        cell = registry.counter("hits")
        cell.add(2)
        assert registry.counter("hits") is cell
        assert registry.counters() == {"hits": 2}

    def test_add_shorthand(self):
        registry = MetricsRegistry()
        registry.add("hits")
        registry.add("hits", 3)
        assert registry.counter("hits").value == 4

    def test_histogram_get_or_create(self):
        registry = MetricsRegistry()
        registry.observe("lat", 10.0)
        registry.observe("lat", 20.0)
        assert registry.histogram("lat").count == 2
        assert registry.histograms()["lat"]["total"] == 30.0

    def test_to_dict_is_json_ready(self):
        registry = MetricsRegistry()
        registry.add("a", 1)
        registry.observe("b", 2.0)
        doc = json.loads(json.dumps(registry.to_dict()))
        assert doc["counters"] == {"a": 1}
        assert doc["histograms"]["b"]["count"] == 1

    def test_separate_registries_are_independent(self):
        one, two = MetricsRegistry(), MetricsRegistry()
        one.add("x", 7)
        assert two.counters() == {}


class TestGuards:
    def test_negative_counter_increment_raises(self):
        cell = Counter("hits")
        with pytest.raises(ValueError, match="monotonic"):
            cell.add(-1)
        assert cell.value == 0  # the bad increment did not land

    def test_registry_add_negative_raises(self):
        registry = MetricsRegistry()
        registry.add("hits", 2)
        with pytest.raises(ValueError, match="hits"):
            registry.add("hits", -2)
        assert registry.counter("hits").value == 2

    def test_zero_increment_allowed(self):
        cell = Counter("hits")
        cell.add(0)
        assert cell.value == 0

    def test_empty_histogram_percentile_raises(self):
        hist = Histogram("lat")
        with pytest.raises(ValueError, match="empty"):
            hist.percentile(50)

    def test_percentile_out_of_range_raises(self):
        hist = Histogram("lat")
        hist.observe(1.0)
        for bad in (-0.1, 100.1, 1000):
            with pytest.raises(ValueError, match=r"\[0, 100\]"):
                hist.percentile(bad)

    def test_error_names_the_metric(self):
        with pytest.raises(ValueError, match="span.ContAccess"):
            Histogram("span.ContAccess").percentile(95)


class TestBoundedHistogram:
    def test_exact_aggregates_beyond_cap(self):
        clock = _FakeClock(1_000_000_000)
        hist = Histogram("h", bucket_sample_cap=100, clock=clock)
        for value in range(1, 1001):  # 1..1000, 10x the cap
            hist.observe(value)
        summary = hist.summary()
        assert summary["count"] == 1000
        assert summary["total"] == sum(range(1, 1001))
        assert summary["max"] == 1000
        # one bucket took them all: memory stays bounded
        assert sum(len(b.samples) for b in hist._ring) == 100

    def test_reservoir_percentiles_are_plausible(self):
        hist = Histogram("h", bucket_sample_cap=256,
                         clock=_FakeClock(1_000_000_000))
        for value in range(1, 10_001):
            hist.observe(value)
        # reservoir sampling keeps a uniform subsample: the median
        # estimate lands in the middle half of the range.
        assert 2500 <= hist.percentile(50) <= 7500

    def test_exact_below_cap(self):
        hist = Histogram("h", bucket_sample_cap=1000)
        for value in range(1, 101):
            hist.observe(value)
        assert abs(hist.percentile(50) - 50) <= 1

    def test_cap_must_be_positive(self):
        with pytest.raises(ValueError, match="sample cap"):
            Histogram("h", bucket_sample_cap=0)

    def test_sampling_is_reproducible_across_processes(self):
        """The reservoir is seeded from a CRC of the name, not from
        ``hash()``: past the per-bucket cap, two interpreters with
        different ``PYTHONHASHSEED`` still keep the same samples."""
        script = (
            "import json\n"
            "from repro.obs.metrics import Histogram\n"
            "hist = Histogram('slo.latency_ns.point',"
            " bucket_sample_cap=16, clock=lambda: 10**9)\n"
            "for value in range(1, 2001):\n"
            "    hist.observe(float(value))\n"
            "print(json.dumps(hist.summary(), sort_keys=True))\n")
        src = str(Path(__file__).resolve().parents[2] / "src")
        outputs = [subprocess.run(
            [sys.executable, "-c", script], check=True,
            capture_output=True, text=True, timeout=60,
            env={"PYTHONPATH": src, "PYTHONHASHSEED": seed}).stdout
            for seed in ("1", "2")]
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["count"] == 2000


class TestGauge:
    def test_set_add_value(self):
        from repro.obs.metrics import Gauge
        gauge = Gauge("bytes")
        assert gauge.value == 0.0
        gauge.set(10.5)
        assert gauge.value == 10.5
        gauge.add(-3.5)
        assert gauge.value == 7.0

    def test_registry_gauges(self):
        registry = MetricsRegistry()
        registry.set_gauge("threshold_ms", 100.0)
        assert registry.gauge("threshold_ms") \
            is registry.gauge("threshold_ms")
        assert registry.gauges() == {"threshold_ms": 100.0}


class TestWindowedHistogram:
    """The rolling window every :class:`Histogram` keeps."""

    def _window(self, **kwargs):
        clock = _FakeClock(1_000_000_000)
        kwargs.setdefault("window_s", 60.0)
        kwargs.setdefault("buckets", 12)
        return Histogram("w", clock=clock, **kwargs), clock

    def test_empty_summary(self):
        window, _ = self._window()
        summary = window.summary()
        assert summary["count"] == 0
        assert summary["rate_per_s"] == 0.0
        assert summary["p50"] is None

    def test_observations_roll_out_of_the_window(self):
        window, clock = self._window()
        window.observe(100.0)
        window.observe(200.0)
        assert window.summary()["p99"] == 200.0
        clock.advance_s(30.0)
        window.observe(150.0)
        assert window.percentile(0) == 100.0
        clock.advance_s(45.0)  # first two are now > 60 s old
        summary = window.summary()
        assert summary["p50"] == summary["p99"] == 150.0
        # one observation since its bucket opened at t = 30 s; now 76 s
        assert summary["rate_per_s"] == 1 / 46.0
        # the lifetime scalars never roll
        assert summary["count"] == 3
        assert summary["max"] == 200.0
        clock.advance_s(120.0)  # everything expired
        summary = window.summary()
        assert summary["p50"] is None
        assert summary["rate_per_s"] == 0.0
        assert summary["count"] == 3 and summary["total"] == 450.0
        with pytest.raises(ValueError, match="empty"):
            window.percentile(50)

    def test_percentiles_over_live_buckets(self):
        window, clock = self._window()
        for value in range(1, 101):
            window.observe(float(value))
            clock.advance_s(0.25)  # spread across buckets, ~25 s
        summary = window.summary()
        assert summary["count"] == 100
        assert summary["p50"] is not None
        assert 40 <= summary["p50"] <= 60
        assert summary["p99"] >= summary["p95"] >= summary["p50"]

    def test_rate_per_s(self):
        window, clock = self._window()
        for _ in range(120):
            window.observe(1.0)
            clock.advance_s(0.5)  # 2 observations per second, 60 s
        rate = window.summary()["rate_per_s"]
        assert 1.5 <= rate <= 2.5

    def test_bucket_memory_is_bounded(self):
        window, clock = self._window(bucket_sample_cap=16)
        for value in range(10_000):
            window.observe(float(value))
        assert window.summary()["count"] == 10_000
        total_samples = sum(len(bucket.samples)
                            for bucket in window._ring)
        assert total_samples <= 12 * 16


class TestRegistryWindows:
    def test_observe_window_and_windows(self):
        registry = MetricsRegistry()
        registry.observe("lat", 5.0)
        registry.observe("lat", 15.0)
        summary = registry.histograms()["lat"]
        assert summary["count"] == 2
        assert summary["max"] == 15.0
        assert summary["p99"] == 15.0
        assert summary["rate_per_s"] > 0

    def test_to_dict_carries_exactly_three_sections(self):
        registry = MetricsRegistry()
        registry.add("c")
        registry.observe("h", 1.0)
        registry.set_gauge("g", 2.0)
        doc = json.loads(json.dumps(registry.to_dict()))
        assert sorted(doc) == ["counters", "gauges", "histograms"]
        assert doc["counters"] == {"c": 1}
        assert doc["gauges"] == {"g": 2.0}
        assert doc["histograms"]["h"]["count"] == 1
