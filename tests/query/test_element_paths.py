"""Positional steps, element paths below a binding and element
existence.

A position counts per context node — per parent for ``//a[k]``, which
abbreviates ``descendant-or-self::node()/child::a[k]`` — in both
engines; the expected answers are walked by hand over ``xmlio.dom``,
with neither engine involved.  Element paths below a for-variable are
projections read off the summary's extents, and ``empty($v/a)`` is a
``not-exists`` term on them.
"""

import pytest

from repro.baselines.galax import GalaxEngine
from repro.query.engine import QueryEngine
from repro.storage.loader import load_document
from repro.xmark.generator import generate_xmark
from repro.xmlio.dom import parse


@pytest.fixture(scope="module")
def xmark():
    return generate_xmark(factor=0.01, seed=42)


@pytest.fixture(scope="module")
def engines(xmark):
    return QueryEngine(load_document(xmark)), GalaxEngine(xmark)


def auctions(xml: str) -> list:
    root = parse(xml).root
    return [auction for section in root.child_elements("open_auctions")
            for auction in section.child_elements("open_auction")]


class TestPositionPerContext:
    @pytest.mark.parametrize("k", [1, 2, 3, 40])
    def test_count_of_kth_bidder_over_every_auction(self, xmark, engines,
                                                    k):
        expected = sum(len(a.child_elements("bidder")) >= k
                       for a in auctions(xmark))
        for query in (f"count(/site/open_auctions/open_auction/bidder[{k}])",
                      f"count(//bidder[{k}])",
                      f"count(/site//open_auction/bidder[{k}]/increase)"):
            for engine in engines:
                assert engine.execute(query)[0] == expected, query
        if k == 1:
            assert expected == 26  # one per auction with a bidder

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_kth_bid_of_each_auction(self, xmark, engines, k):
        expected = []
        for auction in auctions(xmark):
            bidders = auction.child_elements("bidder")
            if len(bidders) >= k:
                expected += [t.value for increase in
                             bidders[k - 1].child_elements("increase")
                             for t in increase.child_texts()]
        ours, reference = engines
        for query in (
                f"/site/open_auctions/open_auction/bidder[{k}]"
                "/increase/text()",
                "for $b in /site/open_auctions/open_auction "
                f"return $b/bidder[{k}]/increase/text()"):
            assert ours.execute(query).items == expected, query
            assert reference.execute(query) == expected, query

    def test_descendant_position_counts_per_parent(self):
        doc = ("<r><a><b>1</b><b>2</b><c><b>3</b></c></a>"
               "<a><c><b>4</b><b>5</b></c></a></r>")
        for engine in (QueryEngine(load_document(doc)), GalaxEngine(doc)):
            assert list(engine.execute("//b[1]/text()")) == \
                ["1", "3", "4"]
            assert list(engine.execute("/r/a//b[2]/text()")) == \
                ["2", "5"]
            assert list(engine.execute(
                "for $a in /r/a return count($a//b[1])")) == [2.0, 1.0]
            assert list(engine.execute("//b[1.5]")) == []


class TestElementProjections:
    DOC = ("<site><people>"
           '<person id="p0"><phone>1</phone><phone>2</phone></person>'
           '<person id="p1"/>'
           '<person id="p2"><phone>3</phone></person></people>'
           '<items><item id="i0"><name>x</name>'
           '<item id="i1"><name>y</name></item></item></items></site>')

    @pytest.fixture(scope="class")
    def run(self):
        engine = QueryEngine(load_document(self.DOC))
        reference = GalaxEngine(self.DOC)

        def run(query):
            result = engine.execute(query)
            assert result.to_xml() == reference.execute_to_xml(query)
            return result
        return run

    def test_positional_step_past_the_group_is_empty(self, run):
        result = run("for $p in /site/people/person "
                     "return <r>{$p/phone[2]/text()}</r>")
        assert result.values() == ["<r>2</r>", "<r/>", "<r/>"]
        assert result.stats.nodes_visited == 0

    def test_nested_owners_share_a_descendant(self, run):
        result = run("for $i in //item return <n>{$i//name}</n>")
        assert result.values() == ["<n><name>x</name><name>y</name></n>",
                                   "<n><name>y</name></n>"]
        assert result.stats.nodes_visited == 0

    def test_count_reads_group_sizes(self, run):
        result = run("for $p in /site/people/person "
                     "return count($p/phone)")
        assert result.items == [2.0, 0.0, 1.0]
        assert run("count(for $p in /site/people/person "
                   "return $p/phone)").items == [3.0]
        assert result.stats.nodes_visited == 0

    def test_element_existence_is_a_summary_term(self, run):
        engine = QueryEngine(load_document(self.DOC))
        for query, ids in (
                ("for $p in /site/people/person where empty($p/phone) "
                 "return $p/@id", ["p1"]),
                ("for $p in /site/people/person[phone] return $p/@id",
                 ["p0", "p2"]),
                ("for $i in //item where not(empty($i//item)) "
                 "return $i/@id", ["i0"])):
            plan = engine.explain(query)
            # The element's extents, climbed to the owners: a NodeSet
            # over summary accesses, nothing per binding.
            assert "  NodeSet " in plan and "Parent " in plan and \
                "Select" not in plan and "navigate" not in plan, plan
            assert engine.verify(query) == []
            result = run(query)
            assert result.items == ids
            # The phones' (items') Parent hops, nothing per binding.
            assert result.stats.nodes_visited <= 3
