"""Tier A plan verifier over hand-built physical plans.

Plans breaking the paper's invariants — a ``MergeJoin`` over inputs
not sorted on its keys, compressed keys of two source models meeting,
a column decompressed twice — must be rejected with rule-tagged
diagnostics, while plans respecting them verify clean.
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
    ColumnCompare,
    Concat,
    ContAccess,
    ContScan,
    ContSubstring,
    Decompress,
    FirstHit,
    MergeJoin,
    NodeSet,
    Sort,
    StructureSummaryAccess,
    ThetaJoin,
)
from repro.storage.loader import load_document
from tests.query.test_physical import Literal

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


class TestMergeJoin:
    def test_unsorted_input_rejected(self, repo):
        """Merging on a column the input is not ordered on: a scan's
        owners come in value order, not document order."""
        scan = ContScan(repo, TITLE, "node", "title")
        books = StructureSummaryAccess(repo, [("descendant", "b")], "b")
        plan = MergeJoin(scan, books, "node", "b")
        rules = rules_of(errors_of(verify_plan(plan)))
        assert rules == ["plan.merge-join-unordered"]

    def test_sort_without_declared_keys_rejected(self, repo):
        """A Sort orders on its declared columns only: none, or not
        the join key, proves nothing about the key's order."""
        scan = ContScan(repo, TITLE, "node", "title")
        for columns in ((), ("node",)):
            plan = MergeJoin(Sort(scan, columns),
                             ContScan(repo, TITLE, "n2", "t2"),
                             "title", "t2")
            assert "plan.merge-join-unordered" in \
                rules_of(verify_plan(plan))

    def test_value_ordered_scans_accepted(self, repo):
        """Two scans of one container are value-ordered and share a
        source model: the paper's compressed merge join."""
        left = ContScan(repo, TITLE, "ln", "lv")
        right = ContScan(repo, TITLE, "rn", "rv")
        plan = MergeJoin(left, right, "lv", "rv")
        assert verify_plan(plan) == []

    def test_declared_sort_establishes_order(self, repo):
        """Two value-ordered runs concatenated lose their order; a Sort
        on the key column restores it."""
        runs = Concat(ContScan(repo, TITLE, "node", "title"),
                      ContScan(repo, TITLE, "node", "title"))
        assert "plan.merge-join-unordered" in rules_of(verify_plan(
            MergeJoin(runs, ContScan(repo, TITLE, "n", "v"),
                      "title", "v")))
        plan = MergeJoin(Sort(runs, ("title",)),
                         ContScan(repo, TITLE, "n", "v"), "title", "v")
        assert errors_of(verify_plan(plan)) == []


class TestContSubstring:
    def test_record_container_accepted_and_value_ordered(self, repo):
        plan = NodeSet(ContSubstring(repo, URI, "b", "uri", "uri0"),
                       None, "b")
        assert verify_plan(plan) == []
        ids = plan.run()["b"].tolist()
        assert ids == sorted(ids) and len(ids) == 10

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
            plan.run()


    def test_exact_access_under_first_hit_accepted(self, repo):
        plan = FirstHit(ContSubstring(repo, URI, "b", "uri", "uri0",
                                      exact=True),
                        repo, [(URI, 0)], "b", "uri")
        assert verify_plan(plan) == []
        assert len(plan.run()["b"]) == 10

    @pytest.mark.parametrize("needle,function,rules", [
        ("uri0", "word-contains", ["plan.substring-inexact"]),
        # Three folded characters are candidates, not positions.
        ("ßu", "contains", ["plan.substring-inexact"]),
        ("ur", "contains", ["plan.substring-not-indexable",
                            "plan.substring-inexact"]),
    ])
    def test_exact_needle_the_index_cannot_decide_rejected(
            self, repo, needle, function, rules):
        """Candidates taken for answers: the gate refuses the plan."""
        plan = ContSubstring(repo, URI, "b", "uri", needle,
                             function=function, exact=True)
        assert rules_of(errors_of(verify_plan(plan))) == rules


class TestThetaJoin:
    def test_numeric_key_container_accepted(self):
        repo = load_document(
            "<r><o><n>3</n></o><k><v>1</v></k><k><v>20</v></k></r>")
        plan = ThetaJoin(repo, ["/r/k/v/#text"], "<", "k", ascend=1)
        assert verify_plan(plan) == []

    @pytest.mark.parametrize("path", [TITLE, URI, NOTE])
    def test_key_container_without_numeric_order_rejected(self, repo,
                                                          path):
        """Order-agnostic, lexicographic and blob key sides alike: a
        slot range is not the set of numerically matching keys."""
        plan = ThetaJoin(repo, [path], ">=", "b", ascend=1)
        diagnostics = verify_plan(plan)
        assert rules_of(errors_of(diagnostics)) == \
            ["plan.theta-join-unordered"]
        assert path in diagnostics[0].message


class TestColumnCompare:
    def test_numeric_sides_accepted(self):
        repo = load_document("<r><a><n>3</n><m>1.5</m></a>"
                             "<a><n>20</n><m>4.0</m></a></r>")
        plan = ColumnCompare(repo, ["/r/a/n/#text"], 1, ["/r/a/m/#text"],
                             1, ">=", 2.0, "a")
        assert verify_plan(plan) == []
        assert plan.build() and plan.run()["a"].tolist() == [1, 4]

    @pytest.mark.parametrize("path", [TITLE, URI, NOTE])
    def test_side_without_numeric_order_rejected(self, repo, path):
        """Either side string-typed, order-agnostic or a blob: its
        values are not the numbers the reference compares."""
        plan = ColumnCompare(repo, [path], 1, [URI], 1, "<", 1.0, "b")
        assert rules_of(errors_of(verify_plan(plan))) == \
            ["plan.compare-not-numeric"] * 2
        assert not plan.build()


class TestCompressedDomains:
    def test_cross_domain_merge_rejected(self, repo):
        """huffman-compressed titles and alm-compressed uris do not
        share a source model; their bit strings must not meet."""
        plan = MergeJoin(ContScan(repo, TITLE, "a", "title"),
                         ContScan(repo, URI, "c", "uri"),
                         "title", "uri")
        assert rules_of(verify_plan(plan)) == \
            ["plan.cross-domain-compare"]



class TestDecompressDiscipline:
    def test_decompress_accepted(self, repo):
        scan = ContScan(repo, TITLE, "node", "title")
        assert verify_plan(Decompress(scan, ["title"])) == []

    def test_duplicate_decompress_warned(self, repo):
        scan = ContScan(repo, TITLE, "node", "title")
        plan = Decompress(Decompress(scan, ["title"]), ["title"])
        diagnostics = verify_plan(plan)
        assert rules_of(diagnostics) == ["plan.duplicate-decompress"]
        assert diagnostics[0].severity == "warning"

    def test_decompress_of_node_column_warned(self, repo):
        scan = ContScan(repo, TITLE, "node", "title")
        plan = Decompress(scan, ["node"])
        assert rules_of(verify_plan(plan)) == \
            ["plan.duplicate-decompress"]


class TestSchemaChecks:
    def test_unknown_column_rejected(self, repo):
        scan = ContScan(repo, TITLE, "node", "title")
        plan = Sort(scan, ("no_such_column",))
        diagnostics = verify_plan(plan)
        assert rules_of(diagnostics) == ["plan.unknown-column"]
        assert "no_such_column" in diagnostics[0].message

    def test_open_schema_suppresses_unknown_column(self, repo):
        """An unknown operator's output is untyped: no false
        positives."""
        plan = Sort(Literal(anything=[1]), ("anything",))
        assert verify_plan(plan) == []

    def test_operator_path_locates_the_offender(self, repo):
        scan = ContScan(repo, TITLE, "node", "title")
        inner = Sort(scan, ("missing",))
        plan = Decompress(inner, ["title"])
        diagnostics = verify_plan(plan)
        assert diagnostics[0].operator_path == "Decompress/source=Sort"


class TestNodeSet:
    def test_output_is_the_node_column_in_document_order(self, repo):
        """Values never pass a NodeSet: nothing left to Decompress,
        and the ids arrive sorted — a MergeJoin key."""
        owners = NodeSet(ContAccess(repo, URI, "n", "v", "uri03"),
                         ContScan(repo, TITLE, "n", "t"), "n",
                         "intersect")
        assert verify_plan(owners) == []
        merge = MergeJoin(owners, StructureSummaryAccess(
            repo, [("descendant", "b")], "m"), "n", "m")
        assert verify_plan(merge) == []
        assert rules_of(verify_plan(Decompress(owners, ["v"]))) == \
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
        plan = Sort(scan, ("no_such_column",))
        diagnostics = verify_plan(plan)
        error = PlanVerificationError(diagnostics)
        assert error.diagnostics == diagnostics
        assert "plan.unknown-column" in str(error)

    def test_every_diagnostic_rule_is_cataloged(self, repo):
        merge = MergeJoin(ContAccess(repo, TITLE, "a", "title", "t", "u"),
                          ContScan(repo, URI, "c", "uri"), "a", "uri")
        plan = Sort(Decompress(merge, ["a", "title"]), ("missing",))
        diagnostics = verify_plan(plan)
        assert {d.rule for d in diagnostics} == {
            "plan.interval-decompressing", "plan.merge-join-unordered",
            "plan.duplicate-decompress", "plan.unknown-column"}
        for diagnostic in diagnostics:
            assert diagnostic.rule in RULES
            assert diagnostic.severity == RULES[diagnostic.rule].severity
