"""Counters, gauges and the registry."""

import json

import pytest

from repro.obs.metrics import Counter, MetricsRegistry


class TestCounter:
    def test_starts_at_zero_and_adds(self):
        cell = Counter("x")
        assert cell.value == 0
        cell.add()
        cell.add(4)
        assert cell.value == 5


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

    def test_to_dict_is_json_ready(self):
        registry = MetricsRegistry()
        registry.add("a", 1)
        registry.set_gauge("b", 2.0)
        doc = json.loads(json.dumps(registry.to_dict()))
        assert doc["counters"] == {"a": 1}
        assert doc["gauges"] == {"b": 2.0}

    def test_separate_registries_are_independent(self):
        one, two = MetricsRegistry(), MetricsRegistry()
        one.add("x", 7)
        assert two.counters() == {}

    def test_to_dict_carries_counters_and_gauges_only(self):
        """The two metric kinds are all a registry holds: a traced
        run's distributions are its spans, not registry entries."""
        registry = MetricsRegistry()
        registry.add("c")
        registry.set_gauge("g", 2.0)
        doc = json.loads(json.dumps(registry.to_dict()))
        assert sorted(doc) == ["counters", "gauges"]
        assert doc["counters"] == {"c": 1}
        assert doc["gauges"] == {"g": 2.0}


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
