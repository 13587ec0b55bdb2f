"""The embedded telemetry HTTP endpoint a :class:`Database` owns.

A resident serving process needs an export surface an operator (or a
Prometheus scraper) can poll without touching the process: a stdlib
:mod:`http.server` bound to localhost by default, serving

* ``/metrics`` — the shared registry's counters and gauges in
  Prometheus text exposition
  (:func:`repro.obs.export.render_prometheus`), plus the uptime
  gauge;
* ``/health``  — liveness: 200 with uptime/served JSON while the
  exporter thread runs;
* ``/ready``   — readiness: 200 once the repository is loaded and the
  caches are warm-capable (:meth:`Database.ready`), 503 otherwise —
  the signal a load balancer gates traffic on;
* ``/slowlog`` — the latest slow-query records (JSON; ``?n=`` bounds
  the count), straight from the in-memory ring.

Everything the handler reads goes through the thread-safe registry /
slow-log snapshots; the exporter introduces **no new lock** above the
existing leaves, so the Tier-C lock discipline is unchanged with the
thread running.  ``TelemetryServer`` is a context manager;
:meth:`close` shuts the listener down and joins the serve thread.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.obs.export import (
    PROMETHEUS_CONTENT_TYPE,
    render_prometheus,
)
from repro.util.clock import NS_PER_S

#: default number of slow-log records ``/slowlog`` returns.
SLOWLOG_DEFAULT_LIMIT = 20


class TelemetryServer:
    """The serving process's telemetry endpoint (one per Database).

    Construct via :meth:`Database.serve_telemetry
    <repro.service.session.Database.serve_telemetry>`; ``port=0``
    binds an ephemeral port, reported by :attr:`port`/:attr:`url`.
    """

    def __init__(self, database, host: str = "127.0.0.1",
                 port: int = 0):
        self.database = database
        self.host = host
        self._httpd = ThreadingHTTPServer(
            (host, port), _handler_class(database))
        # request threads must never outlive close(): a scrape caught
        # mid-response dies with the server instead of blocking exit.
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-telemetry-exporter", daemon=True)
        self.closed = False

    @property
    def port(self) -> int:
        """The bound TCP port (resolved even for ``port=0``)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL of the endpoint (no trailing slash)."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> None:
        """Start the exporter thread (idempotent via ``closed``)."""
        self._thread.start()

    def close(self) -> None:
        """Stop serving: shut the listener down, join the thread."""
        if self.closed:
            return
        self.closed = True
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "TelemetryServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else "serving"
        return f"<TelemetryServer {state} {self.url}>"


def _handler_class(database):
    """A request-handler class closed over one database."""

    class _TelemetryHandler(BaseHTTPRequestHandler):
        # one handler instance per request; the class is the closure.
        server_version = "repro-telemetry/1.0"

        def do_GET(self):  # noqa: N802 - http.server API
            database.metrics.add("telemetry.http.requests")
            parsed = urlparse(self.path)
            route = parsed.path.rstrip("/") or "/"
            if route == "/metrics":
                body = render_prometheus(
                    database.metrics, extra_gauges={
                        "telemetry.uptime_s":
                            database.uptime_ns() / NS_PER_S})
                self._reply(200, body.encode("utf-8"),
                            PROMETHEUS_CONTENT_TYPE)
            elif route == "/health":
                self._reply_json(200, {
                    "status": "ok",
                    "uptime_s": database.uptime_ns() / NS_PER_S,
                    "served": database.metrics.counter(
                        "session.executions").value,
                })
            elif route == "/ready":
                ready = database.ready()
                self._reply_json(200 if ready else 503,
                                 {"ready": ready})
            elif route == "/slowlog":
                self._reply_json(200, _slowlog_document(
                    database, parse_qs(parsed.query)))
            else:
                database.metrics.add("telemetry.http.not_found")
                self._reply_json(404, {"error": "not found",
                                       "path": parsed.path})

        def _reply(self, status: int, body: bytes,
                   content_type: str) -> None:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _reply_json(self, status: int, document: dict) -> None:
            body = json.dumps(document, sort_keys=True,
                              default=str).encode("utf-8")
            self._reply(status, body, "application/json")

        def log_message(self, format, *args):  # noqa: A002
            # scrapes are counted in the registry, not printed —
            # a 1 s scrape interval must not spam stderr.
            pass

    return _TelemetryHandler


def _slowlog_document(database, query: dict) -> dict:
    """The ``/slowlog`` JSON body: latest records, newest last."""
    try:
        limit = int(query.get("n", [SLOWLOG_DEFAULT_LIMIT])[0])
    except ValueError:
        limit = SLOWLOG_DEFAULT_LIMIT
    slow_log = getattr(database, "slow_log", None)
    if slow_log is None:
        return {"enabled": False, "records": []}
    return {
        "enabled": True,
        "threshold_ms": slow_log.threshold_ms,
        "records": slow_log.recent(max(limit, 1)),
    }
