"""Tests for the plan explanation facility."""

import difflib
from pathlib import Path

from repro.query.engine import PreparedPlan
from repro.query.explain import explain as render
from repro.query.optimizer import plan_query
from repro.query.parser import parse_query
from repro.xmark.queries import XMARK_QUERIES, query_text

PLAN_FILE = Path(__file__).parent / "plans" / "xmark.explain.txt"


def explain(text: str) -> str:
    """The rendered plan of a query text (no repository: explain
    renders the plan, it does not verify it)."""
    ast = parse_query(text)
    return render(PreparedPlan(ast, plan_query(ast)))


def test_xmark_plans_match_regression_file():
    """The expected strategy per XMark query, diffed.

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


class TestExplain:
    def test_summary_access_reported(self):
        plan = explain("/site/people/person")
        assert "StructureSummaryAccess" in plan

    def test_range_plan_reported(self):
        plan = explain(
            'for $p in /site/people/person '
            'where $p/name/text() = "Bob" return $p')
        assert "ContAccess interval" in plan
        assert "Parent^1" in plan

    def test_hash_join_reported(self):
        plan = explain(
            "for $p in /site/people/person, $a in /site/auctions/auction "
            "where $a/buyer/@person = $p/@id return $p/name/text()")
        assert "MergeJoin $a/buyer/@person = $p/@id, $p over " \
            "/site/people/person" in plan
        assert "once per execution" in plan and "HashJoin" not in plan
        # Keys that are no container path: checked per binding.
        plan = explain(
            "for $p in /site/people/person, $a in /site/auctions/auction "
            "where $a/buyer = $p/@id return $p/name/text()")
        assert "MergeJoin" not in plan
        assert "Select (evaluated per binding" in plan

    def test_hash_join_needs_a_binding_independent_source(self):
        """The engine joins only over a source it can evaluate once;
        over ``$p/watches/watch`` the equality is checked per binding,
        and EXPLAIN says so."""
        plan = explain(
            "for $p in /site/people/person for $w in $p/watches/watch "
            "where $w/@open_auction = $p/@id return $w")
        assert "MergeJoin" not in plan
        assert "navigate $p/watches/watch" in plan
        assert "Select (evaluated per binding" in plan

    def test_theta_join_reported(self):
        join = ("for $a in /site/auctions/auction, $p in {source} "
                "where {where} return $p")
        plan = explain(join.format(
            source="/site/people/person",
            where="2.5 * $a/price/text() >= $p/profile/income/text()"))
        # Normalised to key-side <op> probe: the operator is flipped.
        assert "ThetaJoin $p/profile/income/text() <= probe" in plan
        assert "bound vars ['a']" in plan and "Parent^2" in plan
        # Not a theta join: a multiplier that reverses the order, a
        # source that depends on the outer binding, an equality
        # conjunct that claims the clause as an equality join first.
        for source, where in (
                ("/site/people/person",
                 "$a/price/text() > 0 * $p/profile/income/text()"),
                ("$a/bidder",
                 "$a/price/text() > 2 * $p/increase/text()"),
                ("/site/people/person",
                 "$a/price/text() > 2 * $p/profile/income/text() "
                 "and $a/buyer/@person = $p/@id")):
            plan = explain(join.format(source=source, where=where))
            assert "ThetaJoin" not in plan
            assert "Select (evaluated per binding" in plan

    def test_fulltext_plan_reported(self):
        for conjunct, decided in (
                ('word-contains($i/desc/text(), "a gold ring")',
                 "q-gram candidates, re-checked per binding"),
                ('contains($i/desc//text(), "gold")',
                 "exact (positional q-grams), no per-binding check")):
            plan = explain(f"for $i in /site//item where {conjunct} "
                           "return $i")
            assert "ContSubstring 'gold' on $i/desc/" in plan
            assert decided in plan
            assert "Select (evaluated per binding" not in plan
        # The step predicate takes the exact term too.
        plan = explain('for $i in /site//item[contains(desc//text(), '
                       '"gold")] return $i')
        assert "ContSubstring 'gold'" in plan and "FirstHit" in plan
        # A path the planner cannot see through stays per binding.
        plan = explain('for $i in /site/item where '
                       'contains(string($i/desc/text()), "gold") return $i')
        assert "ContSubstring" not in plan
        assert "Select (evaluated per binding" in plan

    def test_fallback_select_reported(self):
        plan = explain(
            "for $i in /site/item "
            "where $i/a/text() = $i/b/text() return $i")
        assert "Select" in plan

    def test_order_by_reported(self):
        plan = explain(
            "for $i in /site/item order by $i/p/text() descending "
            "return $i")
        assert "order by (descending)" in plan

    def test_constructor_reported(self):
        plan = explain('for $i in /a return <out>{$i/b}</out>')
        assert "construct <out>" in plan
        assert "Decompress" in plan

    def test_nested_flwor(self):
        plan = explain(
            "for $p in /site/people/person "
            "let $a := for $t in /site/auctions/auction, "
            "$i in /site/items/item "
            "where $t/buyer/@person = $p/@id and $t/@item = $i/@id "
            "return $i return <p>{$a}</p>")
        assert plan.count("for $") >= 3
        assert plan.count("MergeJoin") == 2

    def test_aggregate_path(self):
        plan = explain("count(//person)")
        assert "count(...)" in plan
        assert "StructureSummaryAccess" in plan

    def test_predicated_path_noted(self):
        plan = explain('/site/person[@id = "x"]')
        assert "per-step evaluation" in plan
