"""Prometheus exposition of a registry's counters and gauges."""

from repro.obs.export import PROMETHEUS_CONTENT_TYPE, render_prometheus
from repro.obs.metrics import MetricsRegistry


def populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.add("cache.plan.hit", 7)
    registry.add("cache.plan.miss", 3)
    registry.set_gauge("slowlog.threshold_ms", 100.0)
    registry.set_gauge("cache.block.resident_bytes", 1536.5)
    return registry


class TestRender:
    def test_families_and_values(self):
        text = render_prometheus(populated_registry())
        assert '# TYPE repro_counter counter' in text
        assert '# TYPE repro_gauge gauge' in text
        assert 'repro_counter{name="cache.plan.hit"} 7' in text
        assert 'repro_gauge{name="slowlog.threshold_ms"} 100' in text
        assert 'repro_gauge{name="cache.block.resident_bytes"} 1536.5' \
            in text
        assert "repro_histogram" not in text
        assert text.endswith("\n")

    def test_extra_gauges_do_not_touch_the_registry(self):
        registry = populated_registry()
        text = render_prometheus(
            registry, extra_gauges={"telemetry.uptime_s": 12.5})
        assert 'repro_gauge{name="telemetry.uptime_s"} 12.5' in text
        assert "telemetry.uptime_s" not in registry.gauges()

    def test_label_escaping(self):
        registry = MetricsRegistry()
        registry.add('weird"name\\with\nstuff')
        text = render_prometheus(registry)
        assert 'repro_counter{name="weird\\"name\\\\with\\nstuff"} 1' \
            in text

    def test_content_type_names_the_format_version(self):
        assert "version=0.0.4" in PROMETHEUS_CONTENT_TYPE


class TestRoundTrip:
    def test_scrape_sees_what_a_reader_sees(self):
        """One line per counter and per gauge, carrying the value an
        in-process reader sees, and nothing else."""
        registry = populated_registry()
        lines = render_prometheus(registry).splitlines()
        expected = (
            ["# TYPE repro_counter counter"]
            + [f'repro_counter{{name="{name}"}} {value}'
               for name, value in registry.counters().items()]
            + ["# TYPE repro_gauge gauge"]
            + [f'repro_gauge{{name="{name}"}} {value:g}'
               for name, value in registry.gauges().items()])
        assert lines == expected

    def test_empty_registry_round_trips(self):
        assert render_prometheus(MetricsRegistry()) == (
            "# TYPE repro_counter counter\n# TYPE repro_gauge gauge\n")


class TestShardLabels:
    """Per-shard folded names render as a shard= label."""

    def test_shard_ordinal_lifted_into_label(self):
        registry = MetricsRegistry()
        registry.add("shard.0.session.executions", 41)
        registry.add("shard.12.session.executions", 7)
        registry.set_gauge("shard.3.shard.pid", 999)
        text = render_prometheus(registry)
        assert ('repro_counter{name="session.executions",'
                'shard="0"} 41') in text
        assert ('repro_counter{name="session.executions",'
                'shard="12"} 7') in text
        assert 'repro_gauge{name="shard.pid",shard="3"} 999' in text

    def test_coordinator_names_keep_no_shard_label(self):
        registry = MetricsRegistry()
        registry.add("shard.1.cache.plan.hit", 5)
        registry.add("coordinator.queries", 2)
        registry.set_gauge("shard.id", 1)
        lines = render_prometheus(registry).splitlines()
        assert 'repro_counter{name="cache.plan.hit",shard="1"} 5' \
            in lines
        assert 'repro_counter{name="coordinator.queries"} 2' in lines
        assert 'repro_gauge{name="shard.id"} 1' in lines

    def test_non_ordinal_shard_prefix_stays_whole(self):
        registry = MetricsRegistry()
        registry.add("shard.total.queries", 4)  # not an ordinal
        text = render_prometheus(registry)
        assert 'repro_counter{name="shard.total.queries"} 4' in text
