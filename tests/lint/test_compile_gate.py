"""The engine's pre-execution verification gate.

``QueryEngine.plan`` plans a query once (``optimizer.plan_query``),
binds the plan to its repositories (``optimizer.bind_plan``) and
verifies every tree before any row is produced: errors raise
:class:`~repro.errors.PlanVerificationError`, warnings ride along in
the run's telemetry.  Engine-planned trees must be error-free by
construction; constant selections, equality and theta joins are the
very operator trees the engine then runs
(``optimizer.assign_selection`` / ``assign_equi_join`` /
``assign_theta_join``), and the plan verified is the plan executed.
"""

from __future__ import annotations

import pytest

from repro.baselines.galax import GalaxEngine
from repro.errors import PlanVerificationError
from repro.lint.diagnostics import PlanDiagnostic
from repro.lint.plan import verify_plan
from repro.obs.telemetry import Telemetry
from repro.partitioning.config import (
    CompressionConfiguration,
    ContainerGroup,
)
from repro.query.engine import QueryEngine
from repro.query.optimizer import bind_plan, plan_query
from repro.query.options import ExecutionOptions
from repro.query.parser import parse_query
from repro.query.physical import XMLSerialize
from repro.storage.loader import load_document
from repro.xmark.generator import generate_xmark
from repro.xmark.queries import XMARK_QUERIES, query_text

TITLE = "/lib/b/t/#text"
URI = "/lib/b/u/#text"


def build_repo(title_codec: str = "huffman"):
    xml = "<lib>" + "".join(
        f"<b><t>title {i:02d}</t><u>uri{i:02d}</u></b>"
        for i in range(12)) + "</lib>"
    configuration = CompressionConfiguration(groups=[
        ContainerGroup((TITLE,), title_codec),
        ContainerGroup((URI,), "alm"),
    ])
    return load_document(xml, configuration=configuration)


def plan_trees(query: str, repo) -> list:
    """The operator trees the gate verifies for ``query`` on ``repo``."""
    return bind_plan(plan_query(parse_query(query)), lambda doc: repo)


def shape(node) -> tuple:
    inputs = getattr(node, "inputs", lambda: [])()
    return (type(node).__name__, *map(shape, inputs))


def operators(trees) -> list[str]:
    """Operator class names of the trees, pre-order."""
    names = []

    def walk(shaped):
        names.append(shaped[0])
        for child in shaped[1:]:
            walk(child)

    for tree in trees:
        walk(shape(tree))
    return names


EXAMPLE_QUERIES = (
    "/lib/b/t",
    'for $b in /lib/b where $b/t/text() = "title 03" return $b/u/text()',
    'for $b in /lib/b where $b/u >= "uri04" and $b/u <= "uri06" '
    "return $b/t/text()",
    "for $a in /lib/b, $b in /lib/b where $a/t = $b/t "
    "return $a/u/text()",
)


class TestVerifyQuery:
    @pytest.mark.parametrize("query", EXAMPLE_QUERIES)
    def test_example_queries_have_no_errors(self, query):
        diagnostics = QueryEngine(build_repo()).verify(query)
        assert [d for d in diagnostics if d.severity == "error"] == []

    def test_eq_range_on_huffman_warns_about_pivots(self):
        """The bottom-up interval access on an order-agnostic codec is
        legal but decompresses O(log n) pivots — a warning."""
        diagnostics = QueryEngine(build_repo("huffman")).verify(
            'for $b in /lib/b where $b/t/text() = "title 03" '
            "return $b/t/text()")
        assert [d.rule for d in diagnostics] == \
            ["plan.interval-decompressing"]

    def test_same_range_on_alm_is_clean(self):
        diagnostics = QueryEngine(build_repo("alm")).verify(
            'for $b in /lib/b where $b/t/text() = "title 03" '
            "return $b/t/text()")
        assert diagnostics == []

    def test_sketches_end_in_xml_serialize(self):
        trees = plan_trees(
            'for $b in /lib/b where $b/u >= "uri04" '
            "return $b/u/text()", build_repo())
        assert trees
        assert all(isinstance(tree, XMLSerialize) for tree in trees)

    def test_ineq_sketch_keeps_alm_compressed(self):
        """An order-preserving codec answers the interval on compressed
        bytes: nothing to warn about."""
        diagnostics = QueryEngine(build_repo("alm")).verify(
            'for $b in /lib/b where $b/t/text() > "title 05" '
            "return $b/t/text()")
        assert diagnostics == []


class TestSelectionSketch:
    """What is verified is what runs: one ``assign_selection`` tree."""

    QUERY = ('for $b in /lib/b[u >= "uri02"] where $b/t/text() >= '
             '"title 03" and empty($b/ghost/@x) and contains($b/u, "1") '
             "return $b/u/text()")

    def test_sketch_is_the_selection_tree(self):
        (tree,) = plan_trees(
            'for $b in /lib/b where $b/t/text() >= "title 03" and '
            '$b/u/text() < "uri07" and empty($b/ghost/@x) '
            "return $b", build_repo("alm"))
        owners = ("Parent", ("ContAccess",))
        assert shape(tree) == (
            "XMLSerialize", ("NodeSet", ("NodeSet", owners, owners),
                             ("StructureSummaryAccess",)))
        assert tree.inputs()[0].mode == "difference"
        assert verify_plan(tree) == []

    def test_step_predicate_that_is_no_term_stays_opaque(self):
        # u atomizes an element: not a value leaf, so per-step.
        (tree,) = plan_trees(self.QUERY, build_repo("alm"))
        assert shape(tree) == ("XMLSerialize", ("OpaqueSource",))

    def test_engine_runs_the_tree_the_verifier_saw(self, monkeypatch):
        from repro.query import optimizer
        built = []
        assign = optimizer.assign_selection

        def spy(*args, **kwargs):
            found = assign(*args, **kwargs)
            built.append(found)
            return found

        monkeypatch.setattr(optimizer, "assign_selection", spy)
        engine = QueryEngine(build_repo("alm"))
        result = engine.execute(
            'for $b in /lib/b[u/text() >= "uri02"] where '
            '$b/t/text() < "title 04" return $b/u/text()')
        assert result.items == ["uri02", "uri03"]
        (verified, _), (executed, tree) = built
        assert verified == executed and len(executed.terms) == 2
        assert shape(tree) == (
            "NodeSet", ("Parent", ("ContAccess",)),
            ("Parent", ("ContAccess",)))
        assert result.stats.container_accesses == 2
        assert result.stats.compressed_comparisons == 0


class TestThetaJoinSketch:
    XML = ("<r><p><inc>90</inc><id>a</id></p><p><inc>5</inc><id>b</id>"
           "</p><a><init>4</init><tag>x</tag></a></r>")

    def operators(self, query):
        return operators(plan_trees(query, load_document(self.XML)))

    def test_numeric_inequality_compiles_to_theta_join(self):
        """Also inside count(): aggregates' arguments are planned."""
        join = ("for $p in /r/p, $a in /r/a "
                "where $p/inc/text() > 10 * $a/init/text() return $p")
        for query in (join, f"count({join})"):
            assert self.operators(query) == [
                "XMLSerialize", "ThetaJoin", "StructureSummaryAccess"]
            assert QueryEngine(load_document(self.XML)) \
                .verify(query) == []

    def test_string_key_container_keeps_the_nested_loop(self):
        names = self.operators(
            "for $p in /r/p, $a in /r/a "
            "where $p/inc/text() > 10 * $a/tag/text() return $p")
        assert "NestedLoopJoin" in names and "ThetaJoin" not in names


class TestNestedJoins:
    """Joins inside ``let``, constructors and ``count(…)`` reach the
    verifier, and what it sees is what the run's stats say ran."""

    @pytest.fixture(scope="class")
    def engine(self):
        return QueryEngine(load_document(generate_xmark(0.005, seed=1)))

    @pytest.mark.parametrize("query_id", XMARK_QUERIES)
    def test_verified_operators_are_the_ones_that_run(self, engine,
                                                      query_id):
        text = query_text(query_id)
        verified = engine.plan(text)
        assert [d for d in verified.diagnostics
                if d.severity == "error"] == []
        names = operators(bind_plan(verified.plan, engine.repository_of))
        telemetry = Telemetry()
        stats = engine.execute(
            text, ExecutionOptions(telemetry=telemetry)).stats
        # Equality joins: each verified MergeJoin ran, once.
        ran = telemetry.operator_profile().get("MergeJoin", {})
        assert names.count("MergeJoin") == ran.get("count", 0) == \
            {"Q8": 1, "Q9": 2, "Q10": 1}.get(query_id, 0)
        assert "HashJoin" not in names and stats.hash_joins == 0
        assert ("ThetaJoin" in names) == (query_id == "Q11")
        if query_id in ("Q1", "Q4", "Q5", "Q20"):
            assert "NodeSet" in names and "ContAccess" in names
            assert stats.container_accesses > 0
        # Q14's contains: one verified probe per description container.
        assert names.count("ContSubstring") == \
            (stats.container_accesses if query_id == "Q14" else 0)
        assert ("ContSubstring" in names) == (query_id == "Q14")

    def test_relative_source_is_no_hash_join(self, engine):
        """An equality against a bound variable over a *binding-
        dependent* source runs per binding: neither the verified tree
        nor EXPLAIN may promise a hash join the engine does not run."""
        text = ("for $p in /site/people/person for $w in $p/watches/watch "
                "where $w/@open_auction = $p/@id return $w")
        names = operators(bind_plan(engine.plan(text).plan,
                                    engine.repository_of))
        assert names == ["XMLSerialize", "NestedLoopJoin",
                         "StructureSummaryAccess", "OpaqueSource"]
        assert "HashJoin" not in engine.explain(text)
        result = engine.execute(text)
        assert result.stats.hash_joins == 0
        assert result.to_xml() == GalaxEngine(
            generate_xmark(0.005, seed=1)).execute_to_xml(text)


class TestEngineGate:
    def test_execute_verifies_by_default(self, monkeypatch):
        verified = []
        monkeypatch.setattr(
            "repro.query.engine.verify_plan",
            lambda tree: verified.append(tree) or verify_plan(tree))
        result = QueryEngine(build_repo()).execute(
            'for $b in /lib/b where $b/t/text() = "title 03" '
            "return $b/u/text()")
        assert result.items == ["uri03"]
        assert len(verified) == 1

    def test_errors_raise_before_execution(self, monkeypatch):
        engine = QueryEngine(build_repo())
        bad = PlanDiagnostic.make(
            "plan.missing-decompress", "XMLSerialize",
            "injected error for the gate test")
        monkeypatch.setattr("repro.query.engine.verify_plan",
                            lambda tree: [bad])
        with pytest.raises(PlanVerificationError) as exc_info:
            engine.execute("/lib/b/t")
        assert exc_info.value.diagnostics == [bad]
        assert "plan.missing-decompress" in str(exc_info.value)

    def test_warnings_flow_into_telemetry(self):
        repo = build_repo("huffman")
        engine = QueryEngine(repo)
        telemetry = Telemetry()
        engine.execute(
            'for $b in /lib/b where $b/t/text() = "title 03" '
            "return $b/t/text()",
            ExecutionOptions(telemetry=telemetry))
        rules = [d.rule for d in telemetry.diagnostics]
        assert rules == ["plan.interval-decompressing"]
        assert [d.severity for d in telemetry.diagnostics] == ["warning"]
        assert telemetry.to_dict()["diagnostics"][0]["rule"] == \
            "plan.interval-decompressing"

    def test_plan_carries_what_verify_reports(self):
        """The engine keeps no plans: ``verify`` and ``plan`` each plan
        the AST once and find the same diagnostics, and the plan they
        return is the one the engine runs."""
        engine = QueryEngine(build_repo("huffman"))
        ast = parse_query(
            'for $b in /lib/b where $b/t/text() = "title 03" return $b')
        prepared = engine.plan(ast)
        assert prepared.ast is ast and prepared.text is None
        assert engine.verify(ast) == prepared.diagnostics != []
        assert engine.plan(ast).plan is not prepared.plan
        telemetry = Telemetry()
        engine.execute(prepared, ExecutionOptions(telemetry=telemetry))
        assert telemetry.diagnostics == prepared.diagnostics

    def test_explain_analyze_renders_diagnostics(self):
        repo = build_repo("huffman")
        engine = QueryEngine(repo)
        text = engine.explain_analyze(
            'for $b in /lib/b where $b/t/text() = "title 03" '
            "return $b/t/text()")
        assert "-- plan diagnostics (static verifier) --" in text
        assert "plan.interval-decompressing" in text

    def test_clean_run_renders_no_diagnostics_section(self):
        repo = build_repo("alm")
        engine = QueryEngine(repo)
        text = engine.explain_analyze("/lib/b/t")
        assert "plan diagnostics" not in text
