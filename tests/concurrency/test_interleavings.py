"""Seeded interleaving schedules over the whole serving surface.

Each test drives Session / PlanCache / BlockCache / WorkloadJournal /
MetricsRegistry from multiple workers under the deterministic
:class:`~tests.concurrency.harness.InterleavingScheduler`, with a
:class:`~repro.obs.lockwatch.LockOrderWatchdog` wrapping the
inventoried locks.  The assertions are the Tier-C contract at runtime:
no witnessed lock-order inversion, no observed order that inverts a
static-graph edge, and no deadlock (the harness raises instead of
hanging; CI adds ``faulthandler`` plus a hard timeout on top).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint.concurrency import lint_concurrency
from repro.obs.lockwatch import LockOrderWatchdog, watch_session
from repro.obs.telemetry import Telemetry
from repro.query.options import ExecutionOptions
from repro.service.session import Session
from repro.service.slowlog import SlowQueryLog
from repro.xmark.generator import generate_xmark
from repro.xmark.queries import query_text

from tests.concurrency.harness import InterleavingScheduler

REPRO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: the seeded schedules CI runs; three genuinely different orders.
SEEDS = (11, 23, 37)


@pytest.fixture(scope="module")
def repository():
    from repro.storage.loader import load_document
    return load_document(generate_xmark(factor=0.005, seed=42))


@pytest.fixture(scope="module")
def static_edges():
    return lint_concurrency([REPRO_SRC]).static_edges()


@pytest.fixture(scope="module")
def expected_q1(repository):
    return Session(repository).execute(query_text("Q1")).to_xml()


def _assert_discipline(watchdog: LockOrderWatchdog) -> None:
    """The runtime lock-discipline contract, shared by every seed."""
    assert watchdog.violations() == []
    observed = watchdog.observed_edges()
    static = watchdog.static
    inverted = {(a, b) for (a, b) in observed if (b, a) in static}
    assert inverted == set(), \
        f"observed orders invert static edges: {sorted(inverted)}"


@pytest.mark.parametrize("seed", SEEDS)
def test_serving_surface_interleaved(seed, repository, static_edges,
                                     expected_q1, tmp_path):
    # A zero threshold journals every run through the slow log.
    session = Session(repository, slow_log=SlowQueryLog(
        tmp_path / f"stress-{seed}.jsonl", threshold_ms=0.0))
    journal = session.slow_log.journal
    watchdog = LockOrderWatchdog(static_edges)
    watch_session(watchdog, session)
    watchdog.watch(journal, "_lock", "WorkloadJournal._lock")
    outputs: list[str] = []

    def executor(step):
        outputs.append(session.execute(query_text("Q1")).to_xml())
        step()
        outputs.append(session.execute(query_text("Q1")).to_xml())
        step()
        # A traced run: the slow log takes the journal lock as it
        # records it.
        outputs.append(session.execute(
            query_text("Q1"),
            ExecutionOptions(telemetry=Telemetry())).to_xml())

    def invalidator(step):
        session.invalidate_caches()
        step()
        session.plan_cache.invalidate()
        step()
        session.block_cache.invalidate()

    def metrician(step):
        session.metrics.add("stress.ticks")
        step()
        session.metrics.observe("stress.lat", 1.5)
        step()
        session.metrics.counters()
        session.metrics.histograms()

    def journalist(step):
        journal.append({"seed": seed, "op": 1})
        step()
        journal.append({"seed": seed, "op": 2})

    with watchdog:
        sched = InterleavingScheduler(seed)
        sched.spawn("executor", executor)
        sched.spawn("invalidator", invalidator)
        sched.spawn("metrician", metrician)
        sched.spawn("journalist", journalist)
        steps = sched.run()

    assert steps >= 10  # every worker actually stepped.
    assert outputs == [expected_q1] * 3
    _assert_discipline(watchdog)
    # The journal interleaved whole lines, never torn ones.
    records = journal.records()
    assert {(r["seed"], r["op"]) for r in records
            if "op" in r} >= {(seed, 1), (seed, 2)}
    assert sum(1 for r in records if r.get("query")) == 3


@pytest.mark.parametrize("seed", SEEDS)
def test_same_seed_replays_same_schedule(seed):
    """The harness itself is deterministic: the property that turns a
    failing schedule into a pinned regression."""

    def trace_of() -> list[str]:
        log: list[str] = []

        def worker(name):
            def body(step):
                log.append(f"{name}.a")
                step()
                log.append(f"{name}.b")
            return body

        sched = InterleavingScheduler(seed)
        for name in ("w1", "w2", "w3"):
            sched.spawn(name, worker(name))
        sched.run()
        return log

    assert trace_of() == trace_of()


def test_watchdog_crosscheck_feeds_on_real_static_graph(
        repository, static_edges, expected_q1):
    """Novel edges (observed but statically invisible) are reported
    for triage, not silently merged into the verified graph."""
    session = Session(repository)
    watchdog = LockOrderWatchdog(static_edges)
    with watchdog:
        watch_session(watchdog, session)
        assert session.execute(query_text("Q1")).to_xml() \
            == expected_q1
    assert watchdog.violations() == []
    for edge in watchdog.novel_edges():
        assert edge not in static_edges
    report = watchdog.report()
    assert set(report) == {"observed_edges", "violations",
                           "novel_edges"}
