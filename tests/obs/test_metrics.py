"""Counters, gauges, histograms and the registry."""

import json

import pytest

from repro.obs.metrics import Counter, Histogram, MetricsRegistry


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
                                  "p50": None, "p95": None, "p99": None}

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

    def test_every_sample_is_kept(self):
        """Percentiles are exact however many samples a run takes."""
        hist = Histogram("h")
        values = [float((i * 7919) % 1024) for i in range(1024)]
        for value in values:
            hist.observe(value)
        ranked = sorted(values)
        summary = hist.summary()
        assert summary["count"] == 1024
        assert summary["total"] == sum(values)
        assert summary["max"] == 1023.0
        for p in (50, 95, 99):
            assert summary[f"p{p}"] == ranked[round(p / 100 * 1023)]


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
