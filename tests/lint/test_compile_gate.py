"""The engine's pre-execution verification gate.

``QueryEngine.execute`` compiles the optimizer's decisions into plan
sketches (:mod:`repro.lint.compile`) and verifies them before any row
is produced: errors raise :class:`~repro.errors.PlanVerificationError`,
warnings ride along in the run's telemetry.  Engine-compiled sketches
must be error-free by construction; a for-clause's constant selections
are the very operator tree the engine then runs
(``optimizer.assign_selection``).
"""

from __future__ import annotations

import pytest

from repro.errors import PlanVerificationError
from repro.lint.compile import compile_plan_sketches, verify_query
from repro.lint.diagnostics import PlanDiagnostic
from repro.lint.plan import verify_plan
from repro.obs.telemetry import Telemetry
from repro.partitioning.config import (
    CompressionConfiguration,
    ContainerGroup,
)
from repro.query.engine import QueryEngine
from repro.query.options import ExecutionOptions
from repro.query.parser import parse_query
from repro.query.physical import XMLSerialize
from repro.storage.loader import load_document

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
        repo = build_repo()
        diagnostics = verify_query(parse_query(query), repo)
        assert [d for d in diagnostics if d.severity == "error"] == []

    def test_eq_range_on_huffman_warns_about_pivots(self):
        """The bottom-up interval access on an order-agnostic codec is
        legal but decompresses O(log n) pivots — a warning."""
        repo = build_repo("huffman")
        diagnostics = verify_query(parse_query(
            'for $b in /lib/b where $b/t/text() = "title 03" '
            "return $b/t/text()"), repo)
        assert [d.rule for d in diagnostics] == \
            ["plan.interval-decompressing"]

    def test_same_range_on_alm_is_clean(self):
        repo = build_repo("alm")
        diagnostics = verify_query(parse_query(
            'for $b in /lib/b where $b/t/text() = "title 03" '
            "return $b/t/text()"), repo)
        assert diagnostics == []

    def test_sketches_end_in_xml_serialize(self):
        repo = build_repo()
        sketches = compile_plan_sketches(parse_query(
            'for $b in /lib/b where $b/u >= "uri04" '
            "return $b/u/text()"), repo)
        assert sketches
        assert all(isinstance(s, XMLSerialize) for s in sketches)

    def test_ineq_sketch_keeps_alm_compressed(self):
        """An order-preserving codec answers the interval on compressed
        bytes: nothing to warn about."""
        repo = build_repo("alm")
        diagnostics = verify_query(parse_query(
            'for $b in /lib/b where $b/t/text() > "title 05" '
            "return $b/t/text()"), repo)
        assert diagnostics == []


class TestSelectionSketch:
    """What is verified is what runs: one ``assign_selection`` tree."""

    QUERY = ('for $b in /lib/b[u >= "uri02"] where $b/t/text() >= '
             '"title 03" and empty($b/ghost/@x) and contains($b/u, "1") '
             "return $b/u/text()")

    @staticmethod
    def shape(node):
        inputs = getattr(node, "inputs", lambda: [])()
        return (type(node).__name__, *map(
            TestSelectionSketch.shape, inputs))

    def test_sketch_is_the_selection_tree(self):
        repo = build_repo("alm")
        (sketch,) = compile_plan_sketches(parse_query(
            'for $b in /lib/b where $b/t/text() >= "title 03" and '
            '$b/u/text() < "uri07" and empty($b/ghost/@x) '
            "return $b"), repo)
        owners = ("Parent", ("ContAccess",))
        assert self.shape(sketch) == (
            "XMLSerialize", ("NodeSet", ("NodeSet", owners, owners),
                             ("StructureSummaryAccess",)))
        assert sketch.inputs()[0].mode == "difference"
        assert verify_plan(sketch) == []

    def test_step_predicate_that_is_no_term_stays_opaque(self):
        # u atomizes an element: not a value leaf, so per-step.
        (sketch,) = compile_plan_sketches(parse_query(self.QUERY),
                                          build_repo("alm"))
        assert self.shape(sketch) == ("XMLSerialize", ("OpaqueSource",))

    def test_engine_runs_the_tree_the_verifier_saw(self, monkeypatch):
        from repro.query import optimizer
        built = []
        assign = optimizer.assign_selection

        def spy(*args, **kwargs):
            found = assign(*args, **kwargs)
            built.append(found)
            return found

        monkeypatch.setattr("repro.lint.compile.assign_selection", spy)
        monkeypatch.setattr("repro.query.engine.assign_selection", spy)
        engine = QueryEngine(build_repo("alm"))
        result = engine.execute(
            'for $b in /lib/b[u/text() >= "uri02"] where '
            '$b/t/text() < "title 04" return $b/u/text()')
        assert result.items == ["uri02", "uri03"]
        (verified, _), (executed, tree) = built
        assert verified == executed and len(executed.terms) == 2
        assert self.shape(tree) == (
            "NodeSet", ("Parent", ("ContAccess",)),
            ("Parent", ("ContAccess",)))
        assert result.stats.container_accesses == 2
        assert result.stats.compressed_comparisons == 0


class TestThetaJoinSketch:
    XML = ("<r><p><inc>90</inc><id>a</id></p><p><inc>5</inc><id>b</id>"
           "</p><a><init>4</init><tag>x</tag></a></r>")

    def operators(self, query):
        repo = load_document(self.XML)
        names = []

        def walk(node):
            names.append(type(node).__name__)
            for child in getattr(node, "inputs", lambda: [])():
                walk(child)

        for sketch in compile_plan_sketches(parse_query(query), repo):
            walk(sketch)
        return names

    def test_numeric_inequality_compiles_to_theta_join(self):
        """Also inside count(): aggregates' arguments are sketched."""
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


class TestEngineGate:
    def test_execute_verifies_by_default(self):
        repo = build_repo()
        engine = QueryEngine(repo)
        assert engine.verify_plans is True
        result = engine.execute(
            'for $b in /lib/b where $b/t/text() = "title 03" '
            "return $b/u/text()")
        assert result.items == ["uri03"]

    def test_errors_raise_before_execution(self, monkeypatch):
        repo = build_repo()
        engine = QueryEngine(repo)
        bad = PlanDiagnostic.make(
            "plan.ineq-order-agnostic", "Select",
            "injected error for the gate test")
        monkeypatch.setattr(QueryEngine, "verify",
                            lambda self, query: [bad])
        with pytest.raises(PlanVerificationError) as exc_info:
            engine.execute("/lib/b/t")
        assert exc_info.value.diagnostics == [bad]
        assert "plan.ineq-order-agnostic" in str(exc_info.value)

    def test_warnings_flow_into_telemetry(self):
        repo = build_repo("huffman")
        engine = QueryEngine(repo)
        telemetry = Telemetry(enabled=True)
        engine.execute(
            'for $b in /lib/b where $b/t/text() = "title 03" '
            "return $b/t/text()",
            ExecutionOptions(telemetry=telemetry))
        rules = [d.rule for d in telemetry.diagnostics]
        assert rules == ["plan.interval-decompressing"]
        assert telemetry.metrics.counters()["lint.warning"] == 1
        assert telemetry.to_dict()["diagnostics"][0]["rule"] == \
            "plan.interval-decompressing"

    def test_gate_can_be_disabled(self, monkeypatch):
        repo = build_repo()
        engine = QueryEngine(repo, verify_plans=False)

        def boom(self, query):  # pragma: no cover - must not run
            raise AssertionError("verify called with gate disabled")

        monkeypatch.setattr(QueryEngine, "verify", boom)
        result = engine.execute("/lib/b/t")
        assert len(result) == 12

    def test_verification_is_cached_per_parsed_query(self):
        repo = build_repo()
        engine = QueryEngine(repo)
        ast = parse_query(
            'for $b in /lib/b where $b/t/text() = "title 03" return $b')
        first = engine.verify(ast)
        assert engine.verify(ast) is first

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
