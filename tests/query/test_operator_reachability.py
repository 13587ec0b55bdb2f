"""No operator without a plan.

Every :class:`~repro.query.physical.Operator` subclass in
``query/physical.py`` must be bound by ``QueryEngine.prepare`` — an
operator of ``PreparedPlan.bound``, which runs, is verified and is
explained — for some tested query: XMark Q1–Q20, plus one equijoin
whose key path names several containers (``Concat``/``Sort``).  An operator no plan contains is a
second algebra the verifier and the docs must keep alive for nothing —
a new operator lands with the plan that builds it.
"""

from __future__ import annotations

import inspect

import pytest

from repro.query import physical
from repro.query.engine import QueryEngine
from repro.storage.loader import load_document
from repro.xmark.generator import generate_xmark
from repro.xmark.queries import XMARK_QUERIES, query_text

#: items live under six region elements: six ``@id`` key containers.
MULTI_CONTAINER_JOIN = (
    "for $r in /site/closed_auctions/closed_auction, "
    "$i in /site/regions//item where $r/itemref/@item = $i/@id "
    "return $i/name/text()")


@pytest.fixture(scope="module")
def repo():
    return load_document(generate_xmark(factor=0.005, seed=1))


def reached(tree, found: set[type]) -> None:
    if isinstance(tree, physical.Operator):  # not a ThetaJoin's key run
        found.add(type(tree))
    for child in tree.inputs():
        if isinstance(child, physical.Operator):
            reached(child, found)


def test_every_operator_is_built_by_a_plan(repo):
    queries = [query_text(q) for q in XMARK_QUERIES]
    found: set[type] = set()
    for query in queries + [MULTI_CONTAINER_JOIN]:
        for operator in QueryEngine(repo).prepare(query).bound.operators():
            reached(operator, found)
    declared = {cls for _, cls in inspect.getmembers(physical,
                                                     inspect.isclass)
                if issubclass(cls, physical.Operator)
                and cls is not physical.Operator
                and cls.__module__ == physical.__name__}
    assert declared == found
