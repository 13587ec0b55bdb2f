"""Telemetry-plane smoke run (tier-1:
``tests/service/test_telemetry_smoke.py``).

Exercises the whole serving telemetry plane end-to-end, the way an
operator would meet it:

1. load a small XMark document into a
   :class:`~repro.service.Database` with a slow-query log attached
   and ``serve_telemetry()`` running;
2. serve a batch of XMark queries through ``execute_many`` (so the
   histograms see concurrent traffic);
3. **scrape** ``/metrics`` over real HTTP and assert the exposition
   carries the serving counters, cache counters and per-class latency
   histograms; assert ``/health`` answers 200 and ``/ready`` is true;
4. force one guaranteed-slow query (threshold 0 on a second log
   would hide the point — instead the smoke drops the threshold to
   0 ms and samples every run) and assert the slow-query log holds a
   record **with an exemplar** span breakdown and a plan fingerprint;
5. shut the endpoint down cleanly and assert the port is released
   (a second ``serve_telemetry`` on the same Database must succeed).

Any broken link in that chain — exporter, parser, histogram plumbing,
slow-log wiring, lifecycle — fails the run with a named FAIL line.
"""

from __future__ import annotations

import argparse
import json
import sys
from urllib.request import urlopen

from repro.obs.export import parse_prometheus
from repro.service.slo import latency_rows


def main(argv: list[str] | None = None, out=sys.stdout) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.service.telemetry_smoke",
        description="end-to-end smoke of the serving telemetry "
                    "plane: endpoint, windows, slow-query log")
    parser.add_argument("--factor", type=float, default=0.01,
                        help="XMark scale factor (default 0.01)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--queries", default="Q1,Q2,Q5,Q8",
                        help="comma-separated XMark query ids")
    parser.add_argument("--repeat", type=int, default=3,
                        help="rounds of the batch (default 3)")
    parser.add_argument("--workers", type=int, default=4,
                        help="execute_many width (default 4)")
    args = parser.parse_args(argv)

    from repro.service import Database, SlowQueryLog
    from repro.xmark.generator import generate_xmark
    from repro.xmark.queries import query_text

    query_ids = [q.strip() for q in args.queries.split(",")
                 if q.strip()]
    texts = [query_text(qid) for qid in query_ids]
    xml_text = generate_xmark(factor=args.factor, seed=args.seed)
    # threshold 0 ms + exemplar_rate 1: every query is "slow" and
    # every run is sampled, so the exemplar path is exercised
    # deterministically instead of hoping a real query crosses 100 ms
    # on whatever hardware CI runs on.
    slow_log = SlowQueryLog(threshold_ms=0.0, exemplar_rate=1)
    database = Database.from_xml(xml_text, slow_log=slow_log)
    session = database.session()

    failures: list[str] = []

    def check(ok: bool, what: str) -> None:
        print(f"{'ok' if ok else 'FAIL'}: {what}", file=out)
        if not ok:
            failures.append(what)

    with database.serve_telemetry() as server:
        print(f"telemetry endpoint: {server.url}", file=out)
        for _ in range(max(args.repeat, 1)):
            for result in session.execute_many(
                    texts, max_workers=args.workers):
                len(result.items)

        body = urlopen(server.url + "/metrics").read().decode()
        scraped = parse_prometheus(body)
        served = scraped["counters"].get("session.executions", 0)
        expected = len(texts) * max(args.repeat, 1)
        check(served == expected,
              f"scraped session.executions == {expected} "
              f"(got {served})")
        check("cache.plan.hit" in scraped["counters"],
              "scrape carries plan-cache counters")
        check("cache.block.hit" in scraped["counters"],
              "scrape carries block-cache counters")
        classes = latency_rows(scraped["histograms"])
        check(bool(classes),
              f"scrape carries per-class latency histograms "
              f"({len(classes)} classes)")
        check(sum(row["count"] for row in classes.values())
              == expected, "class counts add up to the served total")
        check(all(row["qps"] > 0 and row["p95_ms"] is not None
                  for row in classes.values()),
              "every class reports a rate and a rolling p95")
        check("telemetry.uptime_s" in scraped["gauges"],
              "scrape carries the uptime gauge")

        with urlopen(server.url + "/health") as response:
            health = json.loads(response.read())
            check(response.status == 200 and
                  health.get("status") == "ok",
                  "/health answers 200 ok")
        with urlopen(server.url + "/ready") as response:
            check(response.status == 200 and
                  json.loads(response.read()).get("ready") is True,
                  "/ready reports ready")

        records = slow_log.recent()
        check(bool(records), f"slow-query log holds records "
                             f"(got {len(records)})")
        exemplars = [r for r in records if r.get("exemplar")]
        check(bool(exemplars),
              f"slow records carry exemplar span breakdowns "
              f"({len(exemplars)}/{len(records)})")
        check(all(r.get("plan_fingerprint") for r in records),
              "slow records carry plan fingerprints")
        with urlopen(server.url + "/slowlog?n=5") as response:
            endpoint_records = json.loads(response.read())["records"]
            check(len(endpoint_records) == min(5, len(records)),
                  "/slowlog serves the ring")

    check(server.closed, "endpoint shut down cleanly")
    second = database.serve_telemetry()
    check(not second.closed, "endpoint restarts after shutdown")
    database.stop_telemetry()

    if failures:
        print(f"{len(failures)} telemetry smoke failure(s)", file=out)
        return 1
    print("telemetry smoke OK", file=out)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
