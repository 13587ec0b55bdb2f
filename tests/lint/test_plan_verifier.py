"""Tier A plan verifier over hand-built physical plans.

The acceptance cases of the issue live here: an ``ineq`` predicate
pushed to a Huffman-compressed container and a ``MergeJoin`` over
unsorted inputs must be rejected with rule-tagged diagnostics, while
plans respecting the paper's invariants verify clean.
"""

from __future__ import annotations

import pytest

from repro.errors import PlanVerificationError
from repro.lint import verify_plan
from repro.lint.rules import RULES
from repro.partitioning.config import (
    CompressionConfiguration,
    ContainerGroup,
)
from repro.query.physical import (
    ContAccess,
    ContScan,
    ContSubstring,
    Decompress,
    HashJoin,
    MergeJoin,
    NodeSet,
    Select,
    Sort,
    StructureSummaryAccess,
    TextContent,
    ThetaJoin,
    XMLSerialize,
)
from repro.query.context import EvaluationStats
from repro.storage.loader import load_document

TITLE = "/lib/b/t/#text"
URI = "/lib/b/u/#text"
NOTE = "/lib/b/w/#text"


@pytest.fixture(scope="module")
def repo():
    """A repository with one container per §3.2 capability profile:
    huffman (order-agnostic), alm (order-preserving, no wild), and a
    bzip2 blob (no record access at all)."""
    xml = "<lib>" + "".join(
        f"<b><t>title {i:02d}</t><u>uri{i:02d}</u>"
        f"<w>note text {i:02d}</w></b>" for i in range(12)) + "</lib>"
    configuration = CompressionConfiguration(groups=[
        ContainerGroup((TITLE,), "huffman"),
        ContainerGroup((URI,), "alm"),
        ContainerGroup((NOTE,), "bzip2"),
    ])
    return load_document(xml, configuration=configuration)


def rules_of(diagnostics):
    return [d.rule for d in diagnostics]


def errors_of(diagnostics):
    return [d for d in diagnostics if d.severity == "error"]


class TestCapabilityRules:
    def test_ineq_on_huffman_rejected(self, repo):
        """The issue's first acceptance plan: an inequality pushed into
        the compressed domain of an order-agnostic codec."""
        scan = ContScan(repo, TITLE, "node", "title")
        plan = Select(scan, None, column="title",
                      predicate_kind="ineq")
        diagnostics = verify_plan(plan)
        assert rules_of(errors_of(diagnostics)) == \
            ["plan.ineq-order-agnostic"]
        assert "huffman" in diagnostics[0].message

    def test_eq_on_huffman_accepted(self, repo):
        scan = ContScan(repo, TITLE, "node", "title")
        plan = Select(scan, None, column="title", predicate_kind="eq")
        assert verify_plan(plan) == []

    def test_wild_on_alm_rejected(self, repo):
        scan = ContScan(repo, URI, "node", "uri")
        plan = Select(scan, None, column="uri", predicate_kind="wild")
        assert rules_of(verify_plan(plan)) == ["plan.wild-unsupported"]

    def test_ineq_on_alm_accepted(self, repo):
        scan = ContScan(repo, URI, "node", "uri")
        plan = Select(scan, None, column="uri", predicate_kind="ineq")
        assert verify_plan(plan) == []

    def test_predicate_on_decompressed_column_accepted(self, repo):
        """After an explicit Decompress any predicate kind is fine."""
        scan = ContScan(repo, TITLE, "node", "title")
        plan = Select(Decompress(scan, ["title"], EvaluationStats()),
                      None, column="title", predicate_kind="ineq")
        assert verify_plan(plan) == []

    def test_unknown_predicate_kind_is_invalid_metadata(self, repo):
        scan = ContScan(repo, TITLE, "node", "title")
        plan = Select(scan, None, column="title",
                      predicate_kind="fuzzy")
        assert rules_of(verify_plan(plan)) == ["plan.invalid-metadata"]


class TestMergeJoin:
    def test_unsorted_input_rejected(self, repo):
        """The issue's second acceptance plan: merging on a column the
        input is not value-ordered on (document order != value order
        after navigation)."""
        titles = TextContent(
            StructureSummaryAccess(repo, [("child", "b")], "b"),
            repo, "b", "title", TITLE, EvaluationStats())
        scan = ContScan(repo, TITLE, "node", "other")
        plan = MergeJoin(titles, scan, lambda r: r["title"],
                         lambda r: r["other"],
                         left_column="title", right_column="other")
        rules = rules_of(errors_of(verify_plan(plan)))
        assert rules == ["plan.merge-join-unordered"]

    def test_sort_without_declared_keys_rejected(self, repo):
        scan = ContScan(repo, TITLE, "node", "title")
        shuffled = Sort(scan, key=lambda r: 0)  # order undeclared
        plan = MergeJoin(shuffled, ContScan(repo, TITLE, "n2", "t2"),
                         lambda r: r["title"], lambda r: r["t2"],
                         left_column="title", right_column="t2")
        assert "plan.merge-join-unordered" in \
            rules_of(verify_plan(plan))

    def test_value_ordered_scans_accepted(self, repo):
        """Two scans of one container are value-ordered and share a
        source model: the paper's compressed merge join."""
        left = ContScan(repo, TITLE, "ln", "lv")
        right = ContScan(repo, TITLE, "rn", "rv")
        plan = MergeJoin(left, right, lambda r: r["lv"],
                         lambda r: r["rv"],
                         left_column="lv", right_column="rv")
        assert verify_plan(plan) == []

    def test_declared_sort_establishes_order(self, repo):
        titles = TextContent(
            StructureSummaryAccess(repo, [("child", "b")], "b"),
            repo, "b", "title", TITLE, EvaluationStats())
        sorted_titles = Sort(titles, key=lambda r: r["title"],
                             columns=("title",))
        plan = MergeJoin(sorted_titles, ContScan(repo, TITLE, "n", "v"),
                         lambda r: r["title"], lambda r: r["v"],
                         left_column="title", right_column="v")
        assert errors_of(verify_plan(plan)) == []

    def test_undeclared_keys_downgrade_to_info(self, repo):
        """Plans predating the metadata (e.g. Figure 5's) are not
        rejected — the verifier just flags them unverifiable."""
        plan = MergeJoin(ContScan(repo, TITLE, "a", "b"),
                         ContScan(repo, URI, "c", "d"),
                         lambda r: r["b"], lambda r: r["d"])
        diagnostics = verify_plan(plan)
        assert rules_of(diagnostics) == ["plan.merge-join-unverifiable"]
        assert diagnostics[0].severity == "info"


class TestContSubstring:
    def test_record_container_accepted_and_value_ordered(self, repo):
        plan = NodeSet(ContSubstring(repo, URI, "b", "uri", "uri0"),
                       None, "b")
        assert verify_plan(plan) == []
        assert [row["b"].node_id for row in plan] == \
            sorted(row["b"].node_id for row in plan)
        assert len(plan.rows()) == 10

    @pytest.mark.parametrize("path,needle", [(NOTE, "note"), (URI, "ur"),
                                             (URI, "")])
    def test_blob_or_short_needle_rejected(self, repo, path, needle):
        """Nothing to emit: running it would select nobody (it raises
        instead), so the gate refuses the plan."""
        from repro.errors import QueryTypeError
        plan = ContSubstring(repo, path, "b", "text", needle)
        diagnostics = verify_plan(plan)
        assert rules_of(errors_of(diagnostics)) == \
            ["plan.substring-not-indexable"]
        assert path in diagnostics[0].message
        with pytest.raises(QueryTypeError):
            plan.rows()


class TestThetaJoin:
    def test_numeric_key_container_accepted(self):
        repo = load_document(
            "<r><o><n>3</n></o><k><v>1</v></k><k><v>20</v></k></r>")
        outer = StructureSummaryAccess(
            repo, [("child", "r"), ("child", "o")], "o")
        plan = ThetaJoin(outer, repo, ["/r/k/v/#text"], "<", None, "k",
                         ascend=1)
        assert verify_plan(XMLSerialize(plan, ())) == []

    @pytest.mark.parametrize("path", [TITLE, URI, NOTE])
    def test_key_container_without_numeric_order_rejected(self, repo,
                                                          path):
        """Order-agnostic, lexicographic and blob key sides alike: a
        slot range is not the set of numerically matching keys."""
        outer = StructureSummaryAccess(repo, [("child", "lib")], "l")
        plan = ThetaJoin(outer, repo, [path], ">=", None, "b", ascend=1)
        diagnostics = verify_plan(plan)
        assert rules_of(errors_of(diagnostics)) == \
            ["plan.theta-join-unordered"]
        assert path in diagnostics[0].message


class TestCompressedDomains:
    def test_cross_domain_merge_rejected(self, repo):
        """huffman-compressed titles and alm-compressed uris do not
        share a source model; their bit strings must not meet."""
        plan = MergeJoin(ContScan(repo, TITLE, "a", "title"),
                         ContScan(repo, URI, "c", "uri"),
                         lambda r: r["title"], lambda r: r["uri"],
                         left_column="title", right_column="uri")
        assert "plan.cross-domain-compare" in \
            rules_of(verify_plan(plan))

    def test_cross_domain_hash_join_rejected(self, repo):
        plan = HashJoin(ContScan(repo, TITLE, "a", "title"),
                        ContScan(repo, URI, "c", "uri"),
                        lambda r: r["title"], lambda r: r["uri"],
                        left_column="title", right_column="uri")
        assert rules_of(verify_plan(plan)) == \
            ["plan.cross-domain-compare"]

    def test_same_model_hash_join_accepted(self, repo):
        plan = HashJoin(ContScan(repo, TITLE, "a", "lv"),
                        ContScan(repo, TITLE, "c", "rv"),
                        lambda r: r["lv"], lambda r: r["rv"],
                        left_column="lv", right_column="rv")
        assert verify_plan(plan) == []


class TestDecompressDiscipline:
    def test_missing_decompress_rejected(self, repo):
        scan = ContScan(repo, TITLE, "node", "title")
        plan = XMLSerialize(scan, ("title",))
        assert rules_of(verify_plan(plan)) == \
            ["plan.missing-decompress"]

    def test_decompress_then_serialize_accepted(self, repo):
        scan = ContScan(repo, TITLE, "node", "title")
        plan = XMLSerialize(
            Decompress(scan, ["title"], EvaluationStats()), ("title",))
        assert verify_plan(plan) == []

    def test_duplicate_decompress_warned(self, repo):
        scan = ContScan(repo, TITLE, "node", "title")
        stats = EvaluationStats()
        plan = Decompress(Decompress(scan, ["title"], stats),
                          ["title"], stats)
        diagnostics = verify_plan(plan)
        assert rules_of(diagnostics) == ["plan.duplicate-decompress"]
        assert diagnostics[0].severity == "warning"

    def test_decompress_of_node_column_warned(self, repo):
        scan = ContScan(repo, TITLE, "node", "title")
        plan = Decompress(scan, ["node"], EvaluationStats())
        assert rules_of(verify_plan(plan)) == \
            ["plan.duplicate-decompress"]


class TestSchemaChecks:
    def test_unknown_column_rejected(self, repo):
        scan = ContScan(repo, TITLE, "node", "title")
        plan = Select(scan, None, column="no_such_column",
                      predicate_kind="eq")
        diagnostics = verify_plan(plan)
        assert rules_of(diagnostics) == ["plan.unknown-column"]
        assert "no_such_column" in diagnostics[0].message

    def test_open_schema_suppresses_unknown_column(self, repo):
        """A plain-list input is untyped: no false positives."""
        rows = [{"anything": 1}]
        plan = Select(rows, None, column="anything",
                      predicate_kind="eq")
        assert verify_plan(plan) == []

    def test_operator_path_locates_the_offender(self, repo):
        scan = ContScan(repo, TITLE, "node", "title")
        inner = Select(scan, None, column="missing",
                       predicate_kind="eq")
        plan = XMLSerialize(
            Decompress(inner, ["title"], EvaluationStats()),
            ("title",))
        diagnostics = verify_plan(plan)
        assert diagnostics[0].operator_path == \
            "XMLSerialize/source=Decompress/source=Select"


class TestNodeSet:
    def test_output_is_the_node_column_in_document_order(self, repo):
        """Values never pass a NodeSet: nothing left to Decompress,
        and the ids arrive sorted — a MergeJoin key."""
        owners = NodeSet(ContAccess(repo, URI, "n", "v", "uri03"),
                         ContScan(repo, TITLE, "n", "t"), "n",
                         "intersect")
        assert verify_plan(XMLSerialize(owners, ())) == []
        merge = MergeJoin(owners, StructureSummaryAccess(
            repo, [("descendant", "b")], "m"), None, None,
            left_column="n", right_column="m")
        assert verify_plan(merge) == []
        assert rules_of(verify_plan(XMLSerialize(owners, ("v",)))) == \
            ["plan.unknown-column"]

    def test_each_input_must_produce_the_column(self, repo):
        plan = NodeSet(ContScan(repo, TITLE, "n", "t"),
                       ContScan(repo, URI, "other", "u"), "n", "union")
        diagnostics = verify_plan(plan)
        assert rules_of(diagnostics) == ["plan.unknown-column"]
        assert verify_plan(NodeSet(ContScan(repo, TITLE, "n", "t"),
                                   None, "n")) == []


class TestIntervalAccess:
    def test_blob_interval_search_warned(self, repo):
        plan = ContAccess(repo, NOTE, "node", "note", "a", "z")
        diagnostics = verify_plan(plan)
        assert rules_of(diagnostics) == \
            ["plan.interval-not-binary-searchable"]
        assert diagnostics[0].severity == "warning"

    def test_bounded_access_on_huffman_warned(self, repo):
        plan = ContAccess(repo, TITLE, "node", "title",
                          "title 03", "title 07")
        assert rules_of(verify_plan(plan)) == \
            ["plan.interval-decompressing"]

    def test_bounded_access_on_alm_clean(self, repo):
        plan = ContAccess(repo, URI, "node", "uri", "uri03", "uri07")
        assert verify_plan(plan) == []

    def test_unbounded_access_on_huffman_clean(self, repo):
        """No bounds, no pivot probing: a full scan is fine."""
        plan = ContAccess(repo, TITLE, "node", "title")
        assert verify_plan(plan) == []


class TestErrorType:
    def test_plan_verification_error_lists_errors(self, repo):
        scan = ContScan(repo, TITLE, "node", "title")
        plan = Select(scan, None, column="title",
                      predicate_kind="ineq")
        diagnostics = verify_plan(plan)
        error = PlanVerificationError(diagnostics)
        assert error.diagnostics == diagnostics
        assert "plan.ineq-order-agnostic" in str(error)

    def test_every_diagnostic_rule_is_cataloged(self, repo):
        scan = ContScan(repo, TITLE, "node", "title")
        plan = XMLSerialize(
            Select(scan, None, column="title",
                   predicate_kind="ineq"), ("title",))
        for diagnostic in verify_plan(plan):
            assert diagnostic.rule in RULES
            assert diagnostic.severity == RULES[diagnostic.rule].severity
