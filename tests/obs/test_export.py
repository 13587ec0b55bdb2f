"""Prometheus exposition: render/parse round trip."""

import pytest

from repro.obs.export import (
    PROMETHEUS_CONTENT_TYPE,
    parse_prometheus,
    render_prometheus,
)
from repro.obs.metrics import Histogram, MetricsRegistry


def populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.add("cache.plan.hit", 7)
    registry.add("cache.plan.miss", 3)
    registry.set_gauge("slowlog.threshold_ms", 100.0)
    for value in (1.0, 2.0, 3.0):
        registry.observe("span.Execute", value)
    for value in (10.0, 20.0, 30.0, 40.0):
        registry.observe("slo.latency_ns.point", value)
    return registry


class TestRender:
    def test_families_and_values(self):
        text = render_prometheus(populated_registry())
        assert '# TYPE repro_counter counter' in text
        assert 'repro_counter{name="cache.plan.hit"} 7' in text
        assert 'repro_gauge{name="slowlog.threshold_ms"} 100' in text
        assert 'repro_histogram_count{name="span.Execute"} 3' in text
        assert 'repro_histogram_count{name="slo.latency_ns.point"} 4' \
            in text
        assert ('repro_histogram{name="slo.latency_ns.point",'
                'quantile="p95"} 40') in text
        assert "repro_window" not in text
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
        parsed = parse_prometheus(text)
        assert parsed["counters"]['weird"name\\with\nstuff'] == 1

    def test_content_type_names_the_format_version(self):
        assert "version=0.0.4" in PROMETHEUS_CONTENT_TYPE


class TestRoundTrip:
    def test_scrape_sees_what_a_reader_sees(self):
        registry = populated_registry()
        parsed = parse_prometheus(render_prometheus(registry))
        assert parsed["counters"] == registry.counters()
        assert parsed["gauges"] == registry.gauges()
        for name in ("span.Execute", "slo.latency_ns.point"):
            hist = registry.histograms()[name]
            scraped = parsed["histograms"][name]
            assert sorted(scraped) == sorted(hist)
            for key in ("count", "total", "max", "p50", "p95", "p99"):
                assert scraped[key] == hist[key]
            # the rate is over the real clock: it moves between reads
            assert scraped["rate_per_s"] == pytest.approx(
                hist["rate_per_s"], rel=0.2)

    def test_unanswerable_quantiles_are_left_out(self):
        clock_ns = [1_000_000_000]
        registry = MetricsRegistry()
        registry._histograms["old"] = Histogram(
            "old", clock=lambda: clock_ns[0])
        registry.observe("old", 5.0)
        clock_ns[0] += 600 * 1_000_000_000  # ten minutes idle
        text = render_prometheus(registry)
        assert 'repro_histogram_count{name="old"} 1' in text
        assert 'quantile=' not in text
        assert parse_prometheus(text)["histograms"]["old"] == {
            "count": 1.0, "total": 5.0, "max": 5.0, "rate_per_s": 0.0}

    def test_parser_skips_foreign_families(self):
        text = ("# HELP something else\n"
                "go_goroutines 42\n"
                'other_family{name="x"} 1\n'
                'repro_counter{name="kept"} 5\n')
        parsed = parse_prometheus(text)
        assert parsed["counters"] == {"kept": 5}

    def test_empty_registry_round_trips(self):
        parsed = parse_prometheus(
            render_prometheus(MetricsRegistry()))
        assert parsed == {"counters": {}, "gauges": {},
                          "histograms": {}}


class TestShardLabels:
    """Per-shard folded names render as a shard= label, losslessly."""

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

    def test_parse_folds_shard_label_back(self):
        registry = MetricsRegistry()
        registry.add("shard.1.cache.plan.hit", 5)
        registry.add("coordinator.queries", 2)
        registry.observe("shard.1.span.Execute", 1.5)
        back = parse_prometheus(render_prometheus(registry))
        assert back["counters"]["shard.1.cache.plan.hit"] == 5
        assert back["counters"]["coordinator.queries"] == 2
        assert "shard.1.span.Execute" in back["histograms"]

    def test_non_ordinal_shard_prefix_stays_whole(self):
        registry = MetricsRegistry()
        registry.add("shard.total.queries", 4)  # not an ordinal
        text = render_prometheus(registry)
        assert 'repro_counter{name="shard.total.queries"} 4' in text
