"""A traced run's telemetry records that run and nothing else.

Physical operators find the run's :class:`~repro.obs.telemetry.Telemetry`
through the context-local ``physical.TELEMETRY``: a concurrent run in
another thread — traced or not — never reports into it.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.obs.telemetry import Telemetry
from repro.query.engine import QueryEngine
from repro.query.options import ExecutionOptions
from repro.query.physical import ContScan
from repro.service.session import Session
from repro.service.slowlog import SlowQueryLog
from repro.storage.loader import load_document
from repro.xmark.generator import generate_xmark
from repro.xmark.queries import query_text

DOC = """
<r>
  <a><x>one</x><y>p</y></a>
  <a><x>two</x><y>q</y></a>
  <a><x>six</x><y>r</y></a>
</r>
"""

#: seconds a thread waits on its partner before the test fails.
TIMEOUT = 30


def test_untraced_thread_never_reports_into_a_traced_run():
    """Thread A holds its traced run mid-evaluation while thread B
    runs a ``ContScan`` untraced: none of B's rows reach A."""
    repository = load_document(DOC)
    container = repository.container("/r/a/x/#text")
    a_evaluating = threading.Event()
    b_done = threading.Event()
    probe = container.interval_positions

    def paused_probe(*args, **kwargs):
        a_evaluating.set()
        assert b_done.wait(TIMEOUT), "thread B never finished"
        return probe(*args, **kwargs)

    container.interval_positions = paused_probe
    telemetry = Telemetry()
    outcome: dict = {}

    def thread_a():
        outcome["a"] = QueryEngine(repository).execute(
            'for $a in /r/a where $a/x/text() = "two" return $a/y/text()',
            ExecutionOptions(telemetry=telemetry)).to_xml()

    def thread_b():
        assert a_evaluating.wait(TIMEOUT), "thread A never paused"
        scan = ContScan(repository, "/r/a/y/#text", "id", "v")
        outcome["b"] = len(scan.run()["id"])
        b_done.set()

    workers = [threading.Thread(target=thread_a),
               threading.Thread(target=thread_b)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(TIMEOUT)
        assert not worker.is_alive()
    assert outcome == {"a": "q", "b": 3}
    profile = telemetry.operator_profile()
    assert profile["ContAccess"]["rows"] == 1  # A's own operator
    assert "ContScan" not in profile


@pytest.fixture(scope="module")
def repository():
    return load_document(generate_xmark(factor=0.01, seed=1))


def _exemplar_operators(repository, queries, max_workers):
    """The operator names of every Q1 exemplar of one batch."""
    slow_log = SlowQueryLog(None, threshold_ms=0, exemplar_rate=1,
                            keep=10_000)
    session = Session(repository, slow_log=slow_log)
    for result in session.execute_many(
            queries, max_workers=max_workers,
            options=ExecutionOptions(use_block_cache=False)):
        result.to_xml()
    return [set(record["exemplar"]["operators"])
            for record in slow_log.recent()
            if record["query"] == query_text("Q1")]


def test_batched_exemplars_carry_only_their_own_operators(repository):
    """Every sampled Q1 exemplar of a concurrent Q1/Q14 batch lists
    exactly the operators Q1 runs alone; a short switch interval
    interleaves the workers' operators finely."""
    [alone] = _exemplar_operators(repository, [query_text("Q1")], 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(5e-4)
    try:
        batched = _exemplar_operators(
            repository, [query_text("Q1"), query_text("Q14")] * 20, 4)
    finally:
        sys.setswitchinterval(interval)
    assert len(batched) == 20
    assert all(operators == alone for operators in batched), \
        [sorted(operators - alone) for operators in batched]
