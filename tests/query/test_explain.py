"""Tests for the plan explanation facility: EXPLAIN prints the
operators a run executes — the bound plan — and nothing else."""

import difflib
from pathlib import Path

import pytest

from repro.core.system import tuned_configuration
from repro.query.engine import QueryEngine
from repro.storage.loader import load_document
from repro.xmark.generator import generate_xmark
from repro.xmark.queries import XMARK_QUERIES, query_text

PLAN_FILE = Path(__file__).parent / "plans" / "xmark.explain.txt"

#: hedges of the plan the planner proposed, before the data decided.
HEDGES = ("exact where", "else Select per binding",
          "else per-step evaluation", "navigated where")


@pytest.fixture(scope="module")
def xml():
    return generate_xmark(factor=0.005, seed=1)


@pytest.fixture(scope="module")
def explain(xml):
    """The rendered bound plan of a query text on a default XMark
    f 0.005 load (seed 1)."""
    return QueryEngine(load_document(xml)).explain


def test_xmark_plans_match_regression_file(explain):
    """The bound operators per XMark query, diffed.

    A change to what any XMark query evaluates as must show up as a
    reviewed edit of ``plans/xmark.explain.txt`` (regenerate it by
    joining the blocks below), never as a silent difference.
    """
    actual = "\n".join(
        f"== {query_id} ==\n{explain(query_text(query_id))}\n"
        for query_id in XMARK_QUERIES)
    diff = "\n".join(difflib.unified_diff(
        PLAN_FILE.read_text().splitlines(), actual.splitlines(),
        "plans/xmark.explain.txt", "explain()", lineterm=""))
    assert not diff, diff
    assert not any(hedge in actual for hedge in HEDGES)


class TestExplain:
    def test_every_xmark_query_explains(self, explain):
        assert [query_id for query_id in XMARK_QUERIES
                if not explain(query_text(query_id)).strip()] == []

    def test_arithmetic_operands_reported(self, explain):
        plan = explain(query_text("Q7"))
        for path in ("description", "annotation", "emailaddress"):
            assert f"StructureSummaryAccess /site//{path}" in plan
        plan = explain(query_text("Q18"))
        assert "return\n  arithmetic *\n    Projection " \
            "$i/current/text()" in plan

    def test_summary_access_reported(self, explain):
        assert explain("/site/people/person") == \
            "StructureSummaryAccess /site/people/person"

    def test_step_predicates_reported(self, explain):
        plan = explain("for $p in /site/people/person "
                       'return $p/phone[@kind = "cell"][2]/text()')
        assert "navigate $p/phone[…][2]/text()" in plan
        plan = explain("for $p in /site/people/person "
                       "return $p/phone[2]/text()")
        assert "Projection $p/phone[2]/text() ← /site/people/person/" \
            "phone #2 → /site/people/person/phone/#text" in plan

    def test_range_plan_reported(self, explain):
        plan = explain(
            'for $p in /site/people/person '
            'where $p/name/text() = "Bob" return $p')
        assert "    ContAccess interval ['Bob', 'Bob'] on " \
            "/site/people/person/name/#text" in plan
        assert "  Parent $p~up1 → $p" in plan
        assert "Select per binding" not in plan

    def test_hash_join_reported(self, explain):
        plan = explain(
            "for $p in /site/people/person, "
            "$a in /site/closed_auctions/closed_auction "
            "where $a/buyer/@person = $p/@id return $p/name/text()")
        assert "  MergeJoin $p~key = $a~key\n" \
            "    Decompress $p~key\n" \
            "      ContScan /site/people/person/@id\n" in plan
        assert "HashJoin" not in plan and "Select" not in plan
        # Keys that are no container path: checked per binding.
        plan = explain(
            "for $p in /site/people/person, "
            "$a in /site/closed_auctions/closed_auction "
            "where $a/buyer = $p/@id return $p/name/text()")
        assert "MergeJoin" not in plan
        assert "Select per binding: $a/buyer = $p/@id" in plan

    def test_float_key_equijoin_checks_per_binding(self, explain):
        """The planner proposes a merge join, but the keys are float
        containers: nothing is bound, and EXPLAIN says so."""
        plan = explain(
            "for $a in /site/open_auctions/open_auction, "
            "$c in /site/closed_auctions/closed_auction "
            "where $a/initial/text() = $c/price/text() return $c")
        assert "MergeJoin" not in plan
        assert "  StructureSummaryAccess /site/closed_auctions/" \
            "closed_auction\n  Select per binding: $a/initial/text() " \
            "= $c/price/text()" in plan

    def test_refused_interval_prints_no_access(self, explain):
        """A number against string containers: the term is dropped at
        binding, and the conjunct is checked per binding."""
        plan = explain("for $p in /site/people/person "
                       "where $p/name/text() > 5 return $p")
        assert "ContAccess" not in plan
        assert "Select per binding: $p/name/text() > 5" in plan

    def test_blob_projection_navigates(self, xml):
        """On a load tuned to Q1, the untouched name texts are a bzip2
        blob: the projection is refused and the path navigated."""
        query = "for $b in /site/people/person return $b/name/text()"
        default = load_document(xml)
        tuned = load_document(xml, configuration=tuned_configuration(
            default, [query_text("Q1")]))
        assert tuned.container(
            "/site/people/person/name/#text").is_blob
        assert "Projection $b/name/text() ← /site/people/person/name/" \
            "#text" in QueryEngine(default).explain(query)
        assert "navigate $b/name/text()" in \
            QueryEngine(tuned).explain(query)

    def test_hash_join_needs_a_binding_independent_source(self, explain):
        """The engine joins only over a source it can evaluate once;
        over ``$p/watches/watch`` the equality is checked per binding,
        and EXPLAIN says so."""
        plan = explain(
            "for $p in /site/people/person for $w in $p/watches/watch "
            "where $w/@open_auction = $p/@id return $w")
        assert "MergeJoin" not in plan
        assert "Projection $p/watches/watch ← " in plan
        assert "Select per binding: $w/@open_auction = $p/@id" in plan

    def test_theta_join_reported(self, explain):
        join = ("for $a in /site/open_auctions/open_auction, $p in "
                "{source} where {where} return $p")
        plan = explain(join.format(
            source="/site/people/person",
            where="2.5 * $a/initial/text() >= $p/profile/@income"))
        # Normalised to key-side <op> probe: the operator is flipped.
        assert "  ThetaJoin key <= probe on /site/people/person/" \
            "profile/@income + Parent^1 → $p" in plan
        # Not a theta join: a multiplier that reverses the order, a
        # source that depends on the outer binding, an equality
        # conjunct that claims the clause as an equality join first.
        for source, where in (
                ("/site/people/person",
                 "$a/initial/text() > 0 * $p/profile/@income"),
                ("$a/bidder",
                 "$a/initial/text() > 2 * $p/increase/text()"),
                ("/site/people/person",
                 "$a/initial/text() > 2 * $p/profile/@income "
                 "and $a/seller/@person = $p/@id")):
            plan = explain(join.format(source=source, where=where))
            assert "ThetaJoin" not in plan
            assert "Select per binding: $a/initial/text() > " in plan

    def test_fulltext_plan_reported(self, explain):
        for conjunct, decided, rechecked in (
                ('word-contains($i/description//text(), "a gold ring")',
                 "(candidates)", True),
                ('contains($i/description//text(), "gold")',
                 "(exact)", False)):
            plan = explain(f"for $i in /site//item where {conjunct} "
                           "return $i")
            assert "ContSubstring 'gold' on /site/regions/" in plan
            assert decided in plan
            assert ("Select per binding" in plan) == rechecked
        # The step predicate takes the exact term too.
        plan = explain('for $i in /site//item[contains(description//'
                       'text(), "gold")] return $i')
        assert "ContSubstring 'gold'" in plan and "FirstHit" in plan
        # A path the planner cannot see through stays per binding.
        plan = explain('for $i in /site/item where '
                       'contains(string($i/desc/text()), "gold") return $i')
        assert "ContSubstring" not in plan
        assert 'Select per binding: contains(string($i/desc/text()), ' \
            '"gold")' in plan

    def test_fallback_select_reported(self, explain):
        plan = explain(
            "for $i in /site/item "
            "where $i/a/text() = $i/b/text() return $i")
        assert "Select per binding: $i/a/text() = $i/b/text()" in plan

    def test_order_by_reported(self, explain):
        plan = explain(
            "for $i in /site/item order by $i/p/text() descending "
            "return $i")
        assert "order by (descending)" in plan

    def test_constructor_reported(self, explain):
        plan = explain("for $p in /site/people/person "
                       "return <out>{$p/name}</out>")
        assert "construct <out>\n    Projection $p/name ← " \
            "/site/people/person/name" in plan

    def test_nested_flwor(self, explain):
        plan = explain(
            "for $p in /site/people/person "
            "let $a := for $t in /site/closed_auctions/closed_auction, "
            "$i in /site/regions/europe/item "
            "where $t/buyer/@person = $p/@id and $t/itemref/@item = $i/@id "
            "return $i return <p>{$a}</p>")
        assert plan.count("for $") == 3
        assert plan.count("MergeJoin") == 2

    def test_aggregate_path(self, explain):
        assert explain("count(//person)") == \
            "count(...)\n  StructureSummaryAccess //person"

    def test_predicated_path_noted(self, explain):
        assert explain('/site/person[@id = "x"]') == \
            "navigate /site/person[…]\n  StructureSummaryAccess /site/person"
