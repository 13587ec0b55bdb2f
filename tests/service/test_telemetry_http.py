"""The /metrics + /health + /ready + /slowlog endpoint."""

import json
from urllib.error import HTTPError
from urllib.request import urlopen

import pytest

from repro.service.session import Database
from repro.service.slowlog import SlowQueryLog

DOC = """
<library>
  <book isbn="1"><title>Dune</title><price>9.99</price></book>
  <book isbn="2"><title>Foundation</title><price>7.5</price></book>
</library>
"""


@pytest.fixture
def database():
    return Database.from_xml(
        DOC, slow_log=SlowQueryLog(threshold_ms=0.0,
                                   exemplar_rate=1))


def get(url: str):
    with urlopen(url, timeout=5.0) as response:
        return response.status, response.read()


class TestEndpoints:
    def test_metrics_round_trips_the_registry(self, database):
        session = database.session()
        for _ in range(3):
            session.execute("/library/book/title")
        with database.serve_telemetry() as server:
            status, body = get(server.url + "/metrics")
        assert status == 200
        lines = body.decode().splitlines()
        assert 'repro_counter{name="session.executions"} 3' in lines
        assert 'repro_counter{name="cache.plan.hit"} 2' in lines
        assert 'repro_gauge{name="slowlog.threshold_ms"} 0' in lines
        uptime = [line for line in lines if line.startswith(
            'repro_gauge{name="telemetry.uptime_s"} ')]
        assert len(uptime) == 1 and float(uptime[0].split()[-1]) > 0
        # counters and gauges only: no family beyond the two
        assert {line.split("{")[0] for line in lines
                if not line.startswith("#")} \
            == {"repro_counter", "repro_gauge"}

    def test_metrics_content_type(self, database):
        with database.serve_telemetry() as server:
            with urlopen(server.url + "/metrics") as response:
                assert "version=0.0.4" in \
                    response.headers["Content-Type"]

    def test_health(self, database):
        with database.serve_telemetry() as server:
            status, body = get(server.url + "/health")
        assert status == 200
        health = json.loads(body)
        assert health["status"] == "ok"
        assert health["uptime_s"] > 0

    def test_ready_true_when_loaded(self, database):
        assert database.ready() is True
        with database.serve_telemetry() as server:
            status, body = get(server.url + "/ready")
        assert status == 200
        assert json.loads(body)["ready"] is True

    def test_slowlog_serves_the_ring(self, database):
        session = database.session()
        for _ in range(4):
            session.execute("/library/book/title")
        with database.serve_telemetry() as server:
            status, body = get(server.url + "/slowlog?n=2")
        document = json.loads(body)
        assert document["enabled"] is True
        assert len(document["records"]) == 2
        assert document["records"][-1]["query"] == "/library/book/title"

    def test_unknown_route_404s(self, database):
        with database.serve_telemetry() as server:
            with pytest.raises(HTTPError) as error:
                get(server.url + "/nope")
            assert error.value.code == 404


class TestLifecycle:
    def test_double_serve_raises(self, database):
        server = database.serve_telemetry()
        try:
            with pytest.raises(RuntimeError, match="already"):
                database.serve_telemetry()
        finally:
            database.stop_telemetry()

    def test_serve_after_close_rebinds(self, database):
        first = database.serve_telemetry()
        database.stop_telemetry()
        assert first.closed
        second = database.serve_telemetry()
        try:
            assert not second.closed
            status, _ = get(second.url + "/health")
            assert status == 200
        finally:
            database.stop_telemetry()

    def test_close_is_idempotent(self, database):
        server = database.serve_telemetry()
        server.close()
        server.close()
        assert server.closed

    def test_requests_are_counted(self, database):
        with database.serve_telemetry() as server:
            get(server.url + "/health")
            get(server.url + "/health")
        assert database.metrics.counters()[
            "telemetry.http.requests"] == 2


class TestViewsAgree:
    def test_scrape_equals_report(self, database):
        """``/metrics`` quotes every counter of the registry at the
        value an in-process reader sees."""
        session = database.session()
        for query in ("/library/book/title",
                      "for $b in /library/book where $b/price > 8.0 "
                      "return $b/title", "/library/book/title"):
            session.execute(query)
        with database.serve_telemetry() as server:
            _, body = get(server.url + "/metrics")
        counters = database.metrics.counters()
        assert counters["session.executions"] == 3
        assert counters["cache.plan.hit"] == 1
        assert counters["cache.plan.miss"] == 2
        lines = body.decode().splitlines()
        for name, value in counters.items():
            if name.startswith("telemetry.http."):
                continue  # the scrape itself moves these
            assert f'repro_counter{{name="{name}"}} {value}' in lines
