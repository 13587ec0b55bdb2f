"""End-to-end tests of the query engine over a compressed repository."""

import pytest

from repro.errors import QueryError
from repro.query.engine import QueryEngine
from repro.query.options import ExecutionOptions
from repro.storage.loader import load_document

DOC = """
<site>
  <people>
    <person id="person0"><name>Alice</name><age>31</age>
      <city>Paris</city></person>
    <person id="person1"><name>Bob</name><age>27</age>
      <city>Lyon</city></person>
    <person id="person2"><name>Carol</name><age>45</age>
      <city>Paris</city></person>
  </people>
  <auctions>
    <auction id="a0"><buyer person="person1"/><price>10</price></auction>
    <auction id="a1"><buyer person="person0"/><price>55</price></auction>
    <auction id="a2"><buyer person="person1"/><price>7</price></auction>
  </auctions>
</site>
"""


@pytest.fixture(scope="module")
def engine():
    return QueryEngine(load_document(DOC))


class TestPaths:
    def test_absolute_child_path(self, engine):
        result = engine.execute("/site/people/person/name/text()")
        assert result.items == ["Alice", "Bob", "Carol"]

    def test_descendant_path(self, engine):
        result = engine.execute("//name/text()")
        assert result.items == ["Alice", "Bob", "Carol"]

    def test_attribute_path(self, engine):
        result = engine.execute("/site/people/person/@id")
        assert result.items == ["person0", "person1", "person2"]

    def test_wildcard(self, engine):
        result = engine.execute("/site/*")
        xml = result.to_xml()
        assert "<people>" in xml and "<auctions>" in xml

    def test_document_function_root(self, engine):
        result = engine.execute(
            'document("x.xml")/site/people/person/name/text()')
        assert result.items == ["Alice", "Bob", "Carol"]

    def test_missing_tag_empty(self, engine):
        assert engine.execute("/site/nothing").items == []

    def test_summary_access_used(self, engine):
        result = engine.execute("/site/people/person")
        assert result.stats.summary_accesses >= 1


class TestPredicates:
    def test_value_predicate(self, engine):
        result = engine.execute(
            '/site/people/person[name = "Bob"]/@id')
        assert result.items == ["person1"]

    def test_attribute_predicate(self, engine):
        result = engine.execute(
            '/site/people/person[@id = "person2"]/name/text()')
        assert result.items == ["Carol"]

    def test_positional_predicate(self, engine):
        result = engine.execute("/site/people/person[2]/name/text()")
        assert result.items == ["Bob"]

    def test_numeric_comparison(self, engine):
        result = engine.execute(
            "/site/people/person[age > 30]/name/text()")
        assert result.items == ["Alice", "Carol"]

    def test_contains(self, engine):
        result = engine.execute(
            'for $p in /site/people/person '
            'where contains($p/city/text(), "ari") '
            'return $p/name/text()')
        assert result.items == ["Alice", "Carol"]


class TestFLWOR:
    def test_basic_for(self, engine):
        result = engine.execute(
            "for $p in /site/people/person return $p/name/text()")
        assert result.items == ["Alice", "Bob", "Carol"]

    def test_where_filters(self, engine):
        result = engine.execute(
            'for $p in /site/people/person where $p/age/text() >= 31 '
            'return $p/name/text()')
        assert result.items == ["Alice", "Carol"]

    def test_let_binding(self, engine):
        result = engine.execute(
            "for $p in /site/people/person let $n := $p/name/text() "
            'where $p/city/text() = "Lyon" return $n')
        assert result.items == ["Bob"]

    def test_join_two_vars(self, engine):
        result = engine.execute(
            "for $p in /site/people/person, "
            "$a in /site/auctions/auction "
            "where $a/buyer/@person = $p/@id "
            "return $p/name/text()")
        assert sorted(result.items) == ["Alice", "Bob", "Bob"]

    def test_join_uses_hash_index(self, engine):
        """One MergeJoin over the two key containers decides the
        equality for every binding: two scans, no hash join."""
        from repro.obs.telemetry import Telemetry
        telemetry = Telemetry()
        result = engine.execute(
            "for $p in /site/people/person, "
            "$a in /site/auctions/auction "
            "where $a/buyer/@person = $p/@id "
            "return $a/price/text()", ExecutionOptions(telemetry=telemetry))
        assert sorted(result.items) == ["10", "55", "7"]
        assert telemetry.operator_profile()["MergeJoin"]["count"] == 1
        assert result.stats.container_scans == 2
        assert result.stats.hash_joins == 0

    def test_join_index_of_context_dependent_source_not_cached(self):
        """The predicate's FLWOR runs once per <g>; its sources are
        relative, so no container holds the keys of one run: the
        equality is checked per binding, and nothing built for one
        group can answer another."""
        from repro.baselines.galax import GalaxEngine
        from repro.query.engine import _Evaluator
        from repro.query.optimizer import plan_query
        from repro.query.parser import parse_query
        doc = "<doc>" + "".join(
            f"<g><k>{i}</k><t><v>{i + i % 2}</v></t></g>"
            for i in range(40)) + "</doc>"
        query = ("/doc/g[count(for $x in k, $t in t "
                 "where $t/v/text() = $x/text() return $t) > 0]/k/text()")
        engine = QueryEngine(load_document(doc))
        evens = "\n".join(str(i) for i in range(0, 40, 2))
        assert engine.execute(query).to_xml() == evens \
            == GalaxEngine(doc).execute_to_xml(query)
        ast = parse_query(query)
        evaluator = _Evaluator(engine, plan_query(ast))
        evaluator.eval(ast, {})
        assert evaluator.stats.hash_joins == 0
        assert evaluator.stats.container_scans == 0
        assert list(evaluator._index_cache.values()) in ([], [None])

    def test_prepared_query_runs_without_planning_again(self, monkeypatch):
        """Plan once: after ``prepare`` nothing classifies a conjunct,
        computes a free-variable set or looks at a source again — the
        evaluator only dispatches on the prepared ``QueryPlan``."""
        from repro.query import optimizer
        from repro.service.session import Session
        session = Session(load_document(DOC))
        queries = {
            "for $p in /site/people/person, $a in /site/auctions/auction "
            "where $a/buyer/@person = $p/@id and $a/price/text() >= 10 "
            "return $p/name/text()": ["Alice", "Bob"],
            "count(for $p in /site/people/person, "
            "$a in /site/auctions/auction "
            "where $a/price/text() < 0.5 * $p/age/text() return $a)":
                [6.0],
            'for $p in /site/people/person[city/text() = "Paris"] '
            "where $p/age/text() > 40 return <p>{count("
            "for $a in /site/auctions/auction "
            "where $a/buyer/@person = $p/@id return $a)}</p>": ["<p>0</p>"],
            "for $p in /site/people/person for $c in $p/city "
            "where $c/text() = $p/city/text() and $p/@id = $wanted "
            "return $c/text()": ["Lyon"],
        }
        prepared = {text: session.prepare(text) for text in queries}

        def planned_twice(*args, **kwargs):
            raise AssertionError("planned again after prepare")

        for name in ("free_vars", "context_free", "flatten_conjuncts",
                     "find_join_plan", "find_theta_plan",
                     "find_selection_plan", "find_range_plan",
                     "plan_query"):
            monkeypatch.setattr(optimizer, name, planned_twice)
        for text, expected in queries.items():
            for _ in range(2):
                result = prepared[text].run(bindings={"wanted": "person1"})
                assert result.values() == expected
            assert session.execute(
                text, ExecutionOptions(bindings={"wanted": "person1"})
            ).values() == expected  # plan-cache hit

    def test_count_of_bindings_matches_counting_items(self, engine):
        """count(for … return $forvar) counts bindings without
        evaluating the return; every other shape counts items."""
        join = ("for $p in /site/people/person, "
                "$a in /site/auctions/auction "
                "where $a/price/text() {op} 0.5 * $p/age/text() ")
        for op, pairs in (("<", 6), (">", 3), (">=", 3)):
            flwor = join.format(op=op)
            for returned in ("$p", "$a", "$a/price", "($p, $a)"):
                counted = engine.execute(
                    f"count({flwor} return {returned})").items
                listed = engine.execute(f"{flwor} return {returned}")
                assert counted == [float(len(listed))]
            assert len(engine.execute(flwor + "return $p")) == pairs
        # A let variable of the same name is a sequence, not a binding.
        assert engine.execute(
            "count(for $p in /site/people/person "
            "let $p := /site/auctions/auction return $p)").items == [9.0]

    def test_nested_flwor_count(self, engine):
        result = engine.execute(
            "for $p in /site/people/person "
            "let $a := for $t in /site/auctions/auction "
            "where $t/buyer/@person = $p/@id return $t "
            "return count($a)")
        assert result.items == [1.0, 2.0, 0.0]

    def test_aggregates(self, engine):
        result = engine.execute(
            "sum(for $a in /site/auctions/auction "
            "return number($a/price/text()))")
        assert result.items == [72.0]

    def test_avg_min_max(self, engine):
        assert engine.execute(
            "avg(/site/auctions/auction/price/text())").items == [24.0]
        assert engine.execute(
            "min(/site/auctions/auction/price/text())").items == [7.0]
        assert engine.execute(
            "max(/site/auctions/auction/price/text())").items == [55.0]


class TestConstructors:
    def test_simple_construction(self, engine):
        result = engine.execute(
            'for $p in /site/people/person '
            'where $p/@id = "person0" '
            'return <out name="{$p/name/text()}">{$p/age/text()}</out>')
        assert result.to_xml() == '<out name="Alice">31</out>'

    def test_node_materialization(self, engine):
        result = engine.execute(
            '/site/people/person[@id = "person1"]')
        xml = result.to_xml()
        assert xml.startswith('<person id="person1">')
        assert "<name>Bob</name>" in xml

    def test_nested_constructors(self, engine):
        result = engine.execute(
            "<all>{for $p in /site/people/person "
            "return <n>{$p/name/text()}</n>}</all>")
        assert result.to_xml() == \
            "<all><n>Alice</n><n>Bob</n><n>Carol</n></all>"


class TestCompressedDomain:
    def test_equality_stays_compressed(self, engine):
        result = engine.execute(
            'for $p in /site/people/person '
            'where $p/city/text() = "Paris" return $p/@id')
        assert result.items == ["person0", "person2"]

    def test_inequality_stays_compressed_with_alm(self, engine):
        result = engine.execute(
            'for $p in /site/people/person '
            'where $p/name/text() < "Bob" return $p/name/text()')
        assert result.items == ["Alice"]
        # The filter itself ran compressed — one interval probe on the
        # order-preserving container, no comparison per binding — and
        # the only decompression is the result's serialization.
        stats = result.stats
        assert stats.container_accesses == 1
        assert (stats.compressed_comparisons,
                stats.decompressed_comparisons) == (0, 0)
        assert stats.decompressions == 1

    def test_range_plan_uses_container_access(self, engine):
        result = engine.execute(
            'for $p in /site/people/person '
            'where $p/city/text() = "Paris" return $p/@id')
        assert result.stats.container_accesses >= 1

    def test_numeric_range_on_typed_container(self, engine):
        result = engine.execute(
            "for $a in /site/auctions/auction "
            "where $a/price/text() > 9 return $a/@id")
        assert result.items == ["a0", "a1"]

    def test_abandoned_access_path_leaves_no_trace(self):
        """Mixed-type leaves: /r/a/p/v is an int container, /r/b/p/v a
        string one, so the range plan falls back to plain evaluation —
        and must not have counted or journalled the first leaf."""
        from repro.baselines.galax import GalaxEngine
        from repro.obs import runtime
        from repro.verify.engine_oracle import _BlameRecorder
        doc = ("<r><a><p><v>5</v></p><p><v>9</v></p></a>"
               "<b><p><v>x</v></p><p><v>7</v></p></b></r>")
        query = ("for $p in //p where $p/v/text() >= 6 "
                 "return $p/v/text()")
        recorder = _BlameRecorder()
        with runtime.recording(recorder):
            result = QueryEngine(load_document(doc)).execute(query)
        assert result.to_xml() == GalaxEngine(doc).execute_to_xml(query)
        assert result.items == ["9", "7"]
        assert result.stats.container_accesses == 0
        assert recorder.predicates == []


class TestXMarkSelections:
    """Q1 and Q20 run on the containers alone (ROADMAP item 1's "a
    point lookup costs ~200 probes"): no comparison per binding."""

    @pytest.fixture(scope="class")
    def xmark(self):
        from repro.baselines.galax import GalaxEngine
        from repro.xmark import generate_xmark
        xml = generate_xmark(0.01, seed=42)
        return QueryEngine(load_document(xml)), GalaxEngine(xml)

    @staticmethod
    def comparisons(stats):
        return stats.compressed_comparisons \
            + stats.decompressed_comparisons

    def test_q1_is_one_container_access(self, xmark):
        from repro.xmark.queries import query_text
        engine, reference = xmark
        result = engine.execute(query_text("Q1"))
        assert result.to_xml() == \
            reference.execute_to_xml(query_text("Q1")) != ""
        assert result.stats.container_accesses == 1
        assert self.comparisons(result.stats) == 0

    def test_q20_counts_without_binding_anybody(self, xmark):
        from repro.xmark.queries import query_text
        engine, reference = xmark
        result = engine.execute(query_text("Q20"))
        assert result.to_xml() == \
            reference.execute_to_xml(query_text("Q20"))
        stats = result.stats
        assert self.comparisons(stats) == 0
        # Four interval probes (the band is two) and one scan for
        # empty(); the only nodes touched are the Parent hops.
        assert (stats.container_accesses, stats.container_scans) == (4, 1)
        owners = len(engine.repository.container(
            "/site/people/person/profile/@income"))
        assert stats.nodes_visited <= 5 * owners


class TestErrors:
    def test_unbound_variable(self, engine):
        with pytest.raises(QueryError):
            engine.execute("$ghost")

    def test_context_without_focus(self, engine):
        with pytest.raises(QueryError):
            engine.execute("@id = 'x'")


class TestStats:
    def test_result_length(self, engine):
        assert len(engine.execute("/site/people/person")) == 3

    def test_values_serializes_elements(self, engine):
        values = engine.execute("<a/>").values()
        assert values == ["<a/>"]
