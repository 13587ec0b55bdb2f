"""A prepared plan's bound operators are shared by all of its runs.

Every run of a plan pulls the operator objects it was bound to at
prepare — ``ThetaJoin`` (Q11), ``ColumnCompare`` (Q3), ``MergeJoin``
(Q8), ``ContSubstring`` / ``FirstHit`` (Q14), the ``ContAccess``
selections (Q20) — and counts into its own run-scoped
``EvaluationStats``.  A 4-thread ``execute_many`` over a cold plan
cache must therefore give each query the answer *and* the counters of
a serial run: a counter kept on a shared operator, or state one run
leaves on it, would show here.
"""

from __future__ import annotations

import pytest

from repro.service.session import Session
from repro.storage.loader import load_document
from repro.xmark.generator import generate_xmark
from repro.xmark.queries import query_text

QUERY_IDS = ("Q3", "Q8", "Q11", "Q14", "Q20")


@pytest.fixture(scope="module")
def repository():
    return load_document(generate_xmark(factor=0.005, seed=42))


def outcome(result) -> tuple[str, dict]:
    """The result's XML, then its counters (materialisation counts)."""
    xml = result.to_xml()
    return xml, result.stats.as_dict()


def test_concurrent_runs_answer_and_count_like_serial_ones(repository):
    serial = [outcome(Session(repository).execute(query_text(qid)))
              for qid in QUERY_IDS]
    assert all(xml for xml, _ in serial)
    session = Session(repository)  # a cold plan cache
    queries = [query_text(qid) for qid in QUERY_IDS] * 4
    results = session.execute_many(queries, max_workers=4)
    assert [outcome(result) for result in results] == serial * 4
    # The plan cache now holds one plan per text; runs off it agree too.
    assert len(session.plan_cache) == len(QUERY_IDS)
    again = session.execute_many(queries, max_workers=4)
    assert [outcome(result) for result in again] == serial * 4
