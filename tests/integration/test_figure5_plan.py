"""Figure 5 — the engine's physical plan for XMark Q9.

The paper's Figure 5 shows Q9 evaluated as a three-way join over
*compressed* attributes (person/@id, buyer/@person, itemref/@item),
navigating with Parent between the attribute containers and their
owners, and decompressing nothing before it is needed.

This test reads that plan off Q9's prepared plan — the bound clauses
every run executes — checks their shape and their verification, and
checks the engine's answer against the reference engine: the operator
algebra composes into the paper's QEP shape because the optimizer
builds it so.  Figure 5's final XMLSerialize step is the result's
materialization.
"""

from __future__ import annotations

import pytest

from repro.baselines.galax import GalaxEngine
from repro.lint.plan import verify_plan
from repro.query.engine import QueryEngine
from repro.query.physical import (
    ContScan,
    Decompress,
    MergeJoin,
    Operator,
    Parent,
)
from repro.storage.loader import load_document
from repro.xmark.generator import generate_xmark
from repro.xmark.queries import query_text

PERSON_ID = "/site/people/person/@id"
Q9 = query_text("Q9")


@pytest.fixture(scope="module")
def xml():
    return generate_xmark(factor=0.02, seed=11)


@pytest.fixture(scope="module")
def repo(xml):
    return load_document(xml)


@pytest.fixture(scope="module")
def q9_joins(repo):
    """The operators Q9's bound clauses run: its two equality joins."""
    bound = QueryEngine(repo).prepare(Q9).bound
    return [operator for clause in bound.clauses.values()
            for operator in clause.operators()]


def nodes(tree) -> list[Operator]:
    """Every operator of a tree, pre-order."""
    found = [tree]
    for child in tree.inputs():
        if isinstance(child, Operator):
            found.extend(nodes(child))
    return found


def is_key_stream(node) -> bool:
    """``ContScan → Parent^k → Decompress``: one container's values,
    decoded, beside their owners in value order."""
    if not isinstance(node, Decompress):
        return False
    (below,) = node.inputs()
    while isinstance(below, Parent):
        (below,) = below.inputs()
    return isinstance(below, ContScan)


class TestFigure5Plan:
    def test_two_merge_joins_over_key_streams(self, q9_joins):
        assert len(q9_joins) == 2
        for join in q9_joins:
            assert isinstance(join, MergeJoin)
            assert all(map(is_key_stream, join.inputs()))

    def test_decompression_only_at_the_top(self, q9_joins):
        """The only decoding is each key stream's Decompress, at the
        top of its stream, just beneath its join: the plan verifies
        clean."""
        decompressions = [n for join in q9_joins for n in nodes(join)
                          if isinstance(n, Decompress)]
        assert len(decompressions) == 4
        assert all(map(is_key_stream, decompressions))
        assert [d for join in q9_joins for d in verify_plan(join)] == []

    def test_plan_matches_engine(self, xml, repo):
        result = QueryEngine(repo).execute(Q9)
        assert result.to_xml() == GalaxEngine(xml).execute_to_xml(Q9)
        assert "<item>" in result.to_xml(), \
            "the join should produce matches"

    def test_merge_join_needs_no_sort(self, repo):
        """Container scans arrive in value order (the §4 property)."""
        keys = Decompress(ContScan(repo, PERSON_ID, "n", "person_id"),
                          ["person_id"]).run()["person_id"].tolist()
        assert keys == sorted(keys)
