"""``repro top``: a live console over the serving telemetry plane.

The operational view the histograms' rolling window exists for: one
screen with the process's QPS, per-query-class latency percentiles
(last window, not lifetime), plan/block-cache hit rates, and the
latest slow-query records — refreshed every ``--interval`` seconds,
or rendered once with ``--once`` (scriptable, testable).

Two interchangeable sources produce the same snapshot shape, through
the same :func:`~repro.service.slo.latency_rows` /
:func:`~repro.service.slo.cache_rates`:

* :class:`LocalSource` — opens the repository in-process and *drives*
  it: each tick serves one round of the given query batch through
  ``execute_many`` (so there is traffic to observe) and reads the
  shared registry + slow-log ring directly.  This is the workbench
  mode: point it at a repository and a workload, watch the windows.
* :class:`ScrapeSource` — attaches to a **running** process's
  telemetry endpoint (:mod:`repro.service.telemetry_http`): pulls
  ``/metrics`` (parsed back through
  :func:`repro.obs.export.parse_prometheus`) and ``/slowlog``.  This
  is the operations mode: observe a serving process without touching
  it.

Both feed :func:`render_top`, which formats the snapshot as aligned
monospace text; the CLI clears the terminal between refreshes.
"""

from __future__ import annotations

import json
from pathlib import Path
from urllib.request import urlopen

from repro.obs.export import parse_prometheus
from repro.service.slo import (
    cache_rates,
    latency_rows,
    render_class_table,
)
from repro.util.clock import NS_PER_S
from repro.util.text import table

#: how many slow-query records a snapshot carries.
SLOW_RECORDS_SHOWN = 5

#: scrape timeout per HTTP request, seconds.
SCRAPE_TIMEOUT_S = 5.0


class LocalSource:
    """Drive an in-process Database and read its registry directly."""

    def __init__(self, database, queries: list[str], *,
                 workers: int = 4):
        if not queries:
            raise ValueError(
                "local top needs a workload to drive: pass --query "
                "or --queries-file (or point top at a running "
                "process's http://host:port endpoint)")
        self.database = database
        self.session = database.session()
        self.queries = list(queries)
        self.workers = workers

    @property
    def label(self) -> str:
        return f"local {self.database.repository!r}"

    def sample(self) -> dict:
        """Serve one round of the batch, then snapshot the plane."""
        for result in self.session.execute_many(
                self.queries, max_workers=self.workers):
            len(result.items)  # force the final Decompress step
        report = self.session.slo_report()
        counters = self.database.metrics.counters()
        slow_log = self.database.slow_log
        return {
            "source": self.label,
            "uptime_s": self.database.uptime_ns() / NS_PER_S,
            "served": counters.get("session.executions", 0),
            "qps": report["qps"],
            "classes": report["classes"],
            "caches": report["caches"],
            "slow": (slow_log.recent(SLOW_RECORDS_SHOWN)
                     if slow_log is not None else []),
        }


class ScrapeSource:
    """Attach to a running process's telemetry endpoint over HTTP."""

    def __init__(self, url: str):
        self.url = url.rstrip("/")

    @property
    def label(self) -> str:
        return f"scrape {self.url}"

    def _get(self, route: str) -> bytes:
        with urlopen(self.url + route,
                     timeout=SCRAPE_TIMEOUT_S) as response:
            return response.read()

    def sample(self) -> dict:
        """One scrape: ``/metrics`` + ``/slowlog`` into a snapshot."""
        scraped = parse_prometheus(
            self._get("/metrics").decode("utf-8"))
        try:
            slow = json.loads(self._get(
                f"/slowlog?n={SLOW_RECORDS_SHOWN}"))["records"]
        except Exception:  # noqa: BLE001 - slowlog is optional garnish
            slow = []
        counters = scraped["counters"]
        classes = latency_rows(scraped["histograms"])
        return {
            "source": self.label,
            "uptime_s": scraped["gauges"].get("telemetry.uptime_s"),
            "served": counters.get("session.executions", 0),
            "qps": sum(row["qps"] for row in classes.values()),
            "classes": classes,
            "caches": cache_rates(counters),
            "slow": slow,
        }


def render_top(snapshot: dict) -> str:
    """One refresh of the console as aligned monospace text."""
    uptime = snapshot.get("uptime_s")
    head = [f"repro top — {snapshot['source']}",
            f"QPS {snapshot['qps']:.2f}   "
            f"served {snapshot['served']}"
            + (f"   uptime {uptime:.1f}s"
               if uptime is not None else "")]
    out = head + [""]

    if snapshot["classes"]:
        out.extend(render_class_table(snapshot["classes"]))
    else:
        out.append("no traffic recorded")
    out.append("")

    cache_bits = []
    for cache, gauge in snapshot["caches"].items():
        rate = gauge["hit_rate"]
        cache_bits.append(
            f"{cache} {('n/a' if rate is None else f'{rate:.1%}')} "
            f"({gauge['hit']}/{gauge['hit'] + gauge['miss']})")
    out.append("caches: " + "   ".join(cache_bits))
    out.append("")

    slow = snapshot["slow"]
    if slow:
        out.append("latest slow queries (newest last):")
        headers = ["ts", "class", "ms", "plan", "exemplar", "query"]
        rows = []
        for record in slow:
            ts = str(record.get("ts", ""))[11:19]  # HH:MM:SS of ISO
            query = str(record.get("query") or "")
            query = " ".join(query.split())
            if len(query) > 48:
                query = query[:45] + "..."
            rows.append([
                ts, str(record.get("class", "?")),
                f"{record.get('wall_ms', 0.0):.1f}",
                str(record.get("plan_fingerprint") or "-"),
                "yes" if record.get("exemplar") else "-",
                query,
            ])
        out.extend(table(headers, rows))
    else:
        out.append("no slow queries recorded")
    return "\n".join(out)


def build_source(target: str, *, queries: list[str],
                 workers: int = 4, slow_threshold_ms=None):
    """The source for a CLI target: URL -> scrape, path -> local."""
    if target.startswith(("http://", "https://")):
        return ScrapeSource(target)
    from repro.service.session import Database
    from repro.service.slowlog import SlowQueryLog
    slow_log = SlowQueryLog(threshold_ms=slow_threshold_ms) \
        if slow_threshold_ms is not None else SlowQueryLog()
    database = Database.open(Path(target), slow_log=slow_log)
    return LocalSource(database, queries, workers=workers)


def run_top(source, out, *, interval: float = 2.0,
            once: bool = False, clear: bool = True) -> int:
    """The refresh loop (Ctrl-C exits cleanly)."""
    import time
    try:
        while True:
            text = render_top(source.sample())
            if once:
                print(text, file=out)
                return 0
            if clear:
                print("\x1b[2J\x1b[H", end="", file=out)
            print(text, file=out, flush=True)
            time.sleep(max(interval, 0.1))
    except KeyboardInterrupt:
        return 0
