"""Pinned regressions from the differential oracle's engine sweep.

Each test is a minimized counterexample where the compressed-domain
:class:`~repro.query.engine.QueryEngine` used to disagree with the
decompress-first reference (:class:`~repro.baselines.galax.GalaxEngine`
over the fully reconstructed document).  Every test asserts *both*
parity and the semantically correct answer, so neither engine can
drift to a new shared wrong behaviour unnoticed.
"""

import pytest

from repro.baselines.galax import GalaxEngine
from repro.errors import XQueCError
from repro.query.context import EvaluationStats
from repro.query.engine import QueryEngine
from repro.storage.loader import load_document
from repro.xmlio.writer import serialize

VARIANTS = ("alm", "huffman")


def outcomes(xml, query, variant="alm"):
    """(compressed, reference) outcome pair, categorized like the oracle."""
    repository = load_document(xml, default_string_codec=variant)
    engine = QueryEngine(repository)
    reference_xml = serialize(
        engine.materialize_node(0, EvaluationStats()))

    def run(thunk):
        try:
            return ("ok", thunk())
        except XQueCError as exc:
            return ("error", type(exc).__name__)

    compressed = run(lambda: engine.execute(query).to_xml())
    reference = run(
        lambda: GalaxEngine(reference_xml).execute_to_xml(query))
    return compressed, reference


def assert_parity(xml, query, expected=None):
    for variant in VARIANTS:
        compressed, reference = outcomes(xml, query, variant)
        assert compressed == reference, (
            f"variant={variant}: {compressed} != {reference}")
        if expected is not None:
            assert compressed == expected, f"variant={variant}"


class TestMixedNumericContainer:
    """Bug: a container holding "500" and "5.5" was typed float, and

    the float codec's canonical decode rewrote "500" to "500.0" —
    observable through text() results and string equality.
    """

    XML = ("<site><a><price>500</price></a>"
           "<b><price>5.5</price></b></site>")

    def test_document_reconstructs_verbatim(self):
        repository = load_document(self.XML)
        engine = QueryEngine(repository)
        text = serialize(engine.materialize_node(0, EvaluationStats()))
        assert "<price>500</price>" in text
        assert "500.0" not in text

    def test_numeric_point_query(self):
        assert_parity(self.XML, "/site/a[price/text() = 500]/price",
                      ("ok", "<price>500</price>"))

    def test_sum_over_mixed_container(self):
        assert_parity(self.XML, "sum(/site//price/text())",
                      ("ok", "505.5"))


class TestStartsWithEmptySequence:
    """Bug: ``starts-with((), prefix)`` crashed instead of treating

    the empty sequence as the empty string.
    """

    XML = "<doc><p><name>ada</name></p><p/></doc>"

    def test_empty_prefix_on_empty_sequence_is_true(self):
        assert_parity(self.XML,
                      'count(/doc/p[starts-with(missing/text(), "")])',
                      ("ok", "2"))

    def test_nonempty_prefix_on_empty_sequence_is_false(self):
        assert_parity(self.XML,
                      'count(/doc/p[starts-with(name/text(), "a")])',
                      ("ok", "1"))


class TestUntypedComparisonOverNumericContainers:
    """Bug: the engine compared two numeric-container items by their

    container order (numeric), while untyped text comparison is
    lexicographic — "10" < "9".
    """

    XML = ("<doc><p><age>10</age></p><p><age>9</age></p></doc>")

    def test_var_var_comparison_is_lexicographic(self):
        query = ('for $a in /doc/p for $b in /doc/p '
                 'where $a/age/text() < $b/age/text() '
                 'return $a/age/text()')
        # "10" < "9" lexicographically, never the reverse.
        assert_parity(self.XML, query, ("ok", "10"))

    def test_string_constant_ineq_is_lexicographic(self):
        # "10" < "3" as strings; numerically 10 > 3.  A string
        # constant must force the string comparison.
        assert_parity(self.XML,
                      'count(/doc/p[age/text() < "3"])', ("ok", "1"))

    def test_string_constant_range_plan_path(self):
        query = ('for $p in /doc/p where $p/age/text() >= "2" '
                 'return $p/age/text()')
        assert_parity(self.XML, query, ("ok", "9"))

    def test_numeric_constant_still_numeric(self):
        assert_parity(self.XML,
                      'count(/doc/p[age/text() < 11])', ("ok", "2"))

    def test_age_vs_city_cross_container(self):
        xml = ("<doc><p><age>10</age><city>2</city></p></doc>")
        assert_parity(xml,
                      'count(/doc/p[age/text() < city/text()])',
                      ("ok", "1"))


class TestThetaJoinExactness:
    """The sort-based inequality join answers by slot position, which

    is the reference comparison only for numeric containers holding one
    key per element, against an actual number.  Each case below is a
    boundary of that rule; the answer must not depend on which side of
    it the engine lands.
    """

    XML = ("<r><ps>"
           "<p><inc>100</inc></p><p><inc>40</inc></p><p><inc>9</inc></p>"
           "</ps><as>"
           "<a><init>2</init></a><a><init>10</init></a><a><init>4</init></a>"
           "</as></r>")
    JOIN = ("for $p in /r/ps/p, $a in /r/as/a "
            "where $p/inc/text() {op} {k} * $a/init/text() ")

    def theta_stats(self, xml, query):
        from repro.verify.engine_oracle import _BlameRecorder
        repository = load_document(xml)
        recorder = _BlameRecorder(repository)
        result = QueryEngine(repository).execute(query)
        result.to_xml()
        return result.stats, recorder

    def test_count_and_values_agree_with_reference(self):
        # 100 > 20, 100, 40 / 40 > 20 / 9 > nothing ... strictly.
        join = self.JOIN.format(op=">", k=10)
        assert_parity(self.XML, f"count({join}return $p)", ("ok", "3"))
        assert_parity(self.XML, join + "return $a/init/text()",
                      ("ok", "2\n4\n2"))
        stats, recorder = self.theta_stats(self.XML,
                                           f"count({join}return $p)")
        assert stats.container_accesses == 3   # one per outer binding
        assert stats.nodes_visited < 9          # no pair was navigated
        # The probes search the sorted keys, never a container interval.
        assert recorder.predicates == []
        assert ("/r/ps/p/inc/#text", "scans") in recorder.accesses

    @pytest.mark.parametrize("op,expected", [
        ("<", "4"), ("<=", "6"), (">", "3"), (">=", "5")])
    def test_ties_respect_strictness(self, op, expected):
        # 40 = 10 * 4 and 100 = 10 * 10 are the ties.
        assert_parity(self.XML,
                      "count(" + self.JOIN.format(op=op, k=10)
                      + "return $a)", ("ok", expected))

    def test_int_container_fractional_scale(self):
        # 0.5 * {2, 10, 4} = {1, 5, 2}: 9 >= all, compared as the
        # float64 product, never as 9 / 0.5 against the integers.
        assert_parity(self.XML,
                      "count(" + self.JOIN.format(op=">=", k=0.5)
                      + "return $p)", ("ok", "9"))

    @pytest.mark.parametrize("k,expected", [(0, "9"), (-1, "9")])
    def test_non_positive_scale_keeps_the_nested_loop(self, k, expected):
        query = "count(" + self.JOIN.format(op=">", k=k) + "return $p)"
        assert_parity(self.XML, query, ("ok", expected))
        assert self.theta_stats(self.XML, query)[0] \
            .container_accesses == 0

    def test_repeated_key_child_falls_back(self):
        # Arithmetic takes the first <init> only: 10 * 1 = 10, so 40
        # is not below it although it is below 10 * 9 = 90.
        xml = self.XML.replace("<a><init>2</init></a>",
                               "<a><init>1</init><init>9</init></a>")
        query = self.JOIN.format(op="<", k=10) + "return $p/inc/text()"
        assert_parity(xml, query, ("ok", "40\n9\n9\n9"))
        query = self.JOIN.format(op=">", k=10) + "return $a/init[1]/text()"
        assert_parity(xml, query, ("ok", "1\n4\n1"))
        stats, recorder = self.theta_stats(xml, query)
        # The abandoned plan left no trace.
        assert stats.container_accesses == 0
        assert recorder.predicates == []

    def test_missing_key_and_missing_probe_value(self):
        xml = self.XML.replace("<a><init>10</init></a>", "<a/>") \
                      .replace("<p><inc>40</inc></p>", "<p/>")
        query = self.JOIN.format(op=">", k=10) + "return $a/init/text()"
        assert_parity(xml, query, ("ok", "2\n4"))
        # A binding without a probe value probes nothing.
        assert self.theta_stats(xml, query)[0].container_accesses == 2

    def test_several_probe_values_are_existential(self):
        # A bare probe path with two values: one of them matching is
        # enough (50 > 10 * {2, 4} though 5 is not; 5 < every key).
        xml = self.XML.replace("<p><inc>40</inc></p>",
                               "<p><inc>5</inc><inc>50</inc></p>")
        for op, expected in ((">", "2\n4\n2\n4"),
                             ("<", "2\n10\n4\n2\n10\n4")):
            query = self.JOIN.format(op=op, k=10) + "return $a/init/text()"
            assert_parity(xml, query, ("ok", expected))
            assert self.theta_stats(xml, query)[0] \
                .container_accesses == 3

    def test_untyped_sides_stay_lexicographic(self):
        # No arithmetic, no number: "10" < "100" < "2" < "4" < "40".
        query = ("for $p in /r/ps/p, $a in /r/as/a "
                 "where $p/inc/text() < $a/init/text() "
                 "return $p/inc/text()")
        assert_parity(self.XML, query, ("ok", "100\n100"))
        assert self.theta_stats(self.XML, query)[0] \
            .container_accesses == 0

    def test_string_typed_probe_side(self):
        # "x" never orders against a number; " 7 " still parses.
        xml = self.XML.replace("<inc>100</inc>", "<inc>x</inc>") \
                      .replace("<inc>40</inc>", "<inc> 7 </inc>")
        query = self.JOIN.format(op=">", k=1) + "return $a/init/text()"
        assert_parity(xml, query, ("ok", "2\n4\n2\n4"))
        assert self.theta_stats(xml, query)[0].container_accesses == 2

    def test_plain_key_against_a_number(self):
        # Clause order swapped: the key side is the bare path, the
        # probe side the arithmetic — numeric, and existential.
        query = ("for $a in /r/as/a, $p in /r/ps/p "
                 "where $p/inc/text() <= 10 * $a/init/text() "
                 "return $p/inc/text()")
        assert_parity(self.XML, query, ("ok", "9\n100\n40\n9\n40\n9"))
        assert self.theta_stats(self.XML, query)[0] \
            .container_accesses == 3

    def test_second_document(self):
        other = "<as><a><init>3</init></a><a><init>50</init></a></as>"
        query = ('for $p in /r/ps/p, $a in document("other")/as/a '
                 "where 2 * $a/init/text() < $p/inc/text() "
                 "return $a/init/text()")
        engine = QueryEngine(load_document(self.XML),
                             {"other": load_document(other)})
        result = engine.execute(query)
        reference = GalaxEngine(self.XML, {"other": other})
        assert result.to_xml() == reference.execute_to_xml(query) \
            == "3\n3\n3"
        assert result.stats.container_accesses == 3

    def test_several_key_containers_are_merged(self):
        xml = ("<r><ps><p><inc>5</inc></p><p><inc>30</inc></p></ps>"
               "<x><a><init>4</init></a><a><init>1</init></a></x>"
               "<y><a><init>2</init></a></y></r>")
        query = ("for $p in /r/ps/p, $a in //a "
                 "where 10 * $a/init/text() <= $p/inc/text() "
                 "return $a/init/text()")
        assert_parity(xml, query, ("ok", "1\n2"))
        assert self.theta_stats(xml, query)[0].container_accesses == 2


class TestEquiJoinBindings:
    """Bug: equality joins probed a hash index per outer binding, so a
    node sharing a key value twice was bound twice (a person with two
    equal interests counted twice), and the matches of a multi-valued
    probe left in its key order, not in document order.  The join now
    runs once as a MergeJoin on the key containers and each match
    binds once, in document order: in a ``let`` (Q8's form) and in one
    FLWOR (Q9's), with either variable on the multi-valued side."""

    CATEGORY = ("for $c in /site/categories/category let $a := "
                "for $p in /site/people/person "
                "where $p/profile/interest/@category = $c/@id "
                "return $p return count($a)")
    PERSON = ("for $p in /site/people/person, "
              "$c in /site/categories/category "
              "where $p/profile/interest/@category = $c/@id "
              "return $c/name/text()")

    @staticmethod
    def xml(*interests, person="p1"):
        return (f'<site><people><person id="{person}"><profile>'
                + "".join(f'<interest category="{category}"/>'
                          for category in interests)
                + "</profile></person></people><categories>"
                '<category id="c1"><name>one</name></category>'
                '<category id="c2"><name>two</name></category>'
                "</categories></site>")

    @staticmethod
    def merge_joins(xml, query) -> int:
        """How many MergeJoins one execution ran."""
        from repro.obs.telemetry import Telemetry
        from repro.query.options import ExecutionOptions
        telemetry = Telemetry()
        result = QueryEngine(load_document(xml)).execute(
            query, ExecutionOptions(telemetry=telemetry))
        result.to_xml()
        assert result.stats.hash_joins == 0
        return telemetry.operator_profile().get(
            "MergeJoin", {}).get("count", 0)

    def check(self, xml, query, expected, merge_joins=1):
        assert_parity(xml, query, ("ok", expected))
        assert self.merge_joins(xml, query) == merge_joins

    def test_repeated_key_binds_once_in_a_let(self):
        self.check(self.xml("c1", "c1"), self.CATEGORY, "1\n0")

    def test_repeated_key_binds_once_in_one_flwor(self):
        self.check(self.xml("c1", "c1"),
                   "for $c in /site/categories/category, "
                   "$p in /site/people/person "
                   "where $c/@id = $p/profile/interest/@category "
                   "return $p/@id", "p1")

    def test_matches_leave_in_document_order_in_one_flwor(self):
        self.check(self.xml("c2", "c1"), self.PERSON, "one\ntwo")

    def test_matches_leave_in_document_order_in_a_let(self):
        self.check(self.xml("c2", "c1", "c2"),
                   "for $p in /site/people/person let $a := "
                   "for $c in /site/categories/category "
                   "where $c/@id = $p/profile/interest/@category "
                   "return $c/name/text() return <r>{$a}</r>",
                   "<r>onetwo</r>")

    def test_rebound_probe_variable_is_the_inner_one(self):
        """``where`` sees the inner ``$p``, bound after ``$t``: the
        join waits for it instead of probing the outer person."""
        self.check(self.xml(person="c2"),
                   "for $p in /site/people/person return <r>{"
                   "for $t in /site/categories/category, "
                   "$p in /site/categories/category "
                   "where $t/@id = $p/@id return $t/name/text()}</r>",
                   "<r>onetwo</r>")

    def test_relative_source_is_checked_per_binding(self):
        """The predicate's FLWOR runs once per ``<g>`` over relative
        sources: no container holds one run's keys, so the equality
        is checked per binding — and still answers."""
        xml = "<doc>" + "".join(
            f"<g><k>{i}</k><t><v>{i + i % 2}</v></t></g>"
            for i in range(6)) + "</doc>"
        self.check(xml, "/doc/g[count(for $x in k, $t in t "
                        "where $t/v/text() = $x/text() return $t) > 0]"
                        "/k/text()", "0\n2\n4", merge_joins=0)


class TestSelectionExactness:
    """Constant selections run on the containers alone; a conjunct is
    left unchecked per binding only where slot order is the reference
    comparison.  Each case sits on a boundary of that rule, and states
    by counters which side the engine took."""

    XML = ("<r><ps>"
           '<p id="a" k="7"><n>7</n><f>100.5</f><s>7</s>'
           '<i c="c1"/><i c="c2"/><i c="c1"/></p>'
           '<p id="b" k="07"><n>10</n><f>9.25</f><s>07</s><i c="c2"/></p>'
           '<p id="c"><n>31</n><f>0.5</f><s>x</s></p>'
           '<p id="d" k="100"><n>7</n><f>100.5</f><s>10</s><p id="e">'
           "<n>7</n><s>7</s></p></p>"
           "</ps></r>")

    def run(self, query, xml=None):
        from repro.verify.engine_oracle import _BlameRecorder
        repository = load_document(xml or self.XML)
        recorder = _BlameRecorder(repository)
        result = QueryEngine(repository).execute(query)
        result.to_xml()
        return result.stats, recorder

    def ids(self, source, where, expected, *, comparisons=0,
            accesses=None):
        """``where`` over ``source`` selects ``expected``; the count
        form agrees; ``comparisons`` per-binding comparisons ran."""
        query = f"for $v in {source} where {where} return $v/@id"
        assert_parity(self.XML, query,
                      ("ok", "\n".join(expected.split())))
        assert_parity(self.XML,
                      f"count(for $v in {source} where {where} return $v)",
                      ("ok", str(len(expected.split()))))
        stats, _ = self.run(query)
        assert stats.compressed_comparisons \
            + stats.decompressed_comparisons == comparisons
        if accesses is not None:
            assert stats.container_accesses == accesses

    def test_number_on_an_int_container(self):
        self.ids("/r/ps/p", "$v/n/text() = 7", "a d", accesses=1)
        self.ids("/r/ps/p", "7 < $v/n/text()", "b c", accesses=1)
        self.ids("/r/ps/p", "$v/n/text() >= 9.5", "b c", accesses=1)

    def test_number_on_a_float_container(self):
        self.ids("/r/ps/p", "$v/f/text() = 100.50", "a d", accesses=1)
        self.ids("/r/ps/p", "$v/f/text() < 100.5", "b c", accesses=1)

    def test_constants_outside_the_container(self):
        self.ids("/r/ps/p", "$v/n/text() = 8", "", accesses=1)
        self.ids("/r/ps/p", "$v/n/text() < 0", "", accesses=1)
        self.ids("/r/ps/p", "$v/n/text() <= 1000", "a b c d",
                 accesses=1)
        self.ids("/r/ps/p", '$v/@id > "zz"', "", accesses=1)
        self.ids("/r/ps/p", '$v/@id >= ""', "a b c d", accesses=1)

    def test_string_on_a_string_container(self):
        # "07" and "7" are different texts; "10" < "7" as text.
        self.ids("/r/ps/p", '$v/s/text() = "7"', "a", accesses=1)
        self.ids("/r/ps/p", '$v/s/text() < "7"', "b d", accesses=1)
        self.ids("/r/ps/p", '$v/@k = "07"', "b", accesses=1)

    def test_string_on_a_numeric_container_is_checked_per_binding(self):
        # Text order on typed numbers ("10" < "7"): not slot order.
        self.ids("/r/ps/p", '$v/n/text() < "7"', "b c", comparisons=4,
                 accesses=0)
        self.ids("/r/ps/p", '$v/f/text() = "100.50"', "", comparisons=4,
                 accesses=0)

    def test_number_on_a_string_container_is_checked_per_binding(self):
        # "07" = 7 by value; "x" is no number at all.
        self.ids("/r/ps/p", "$v/s/text() = 7", "a b", comparisons=4,
                 accesses=0)
        self.ids("/r/ps/p", "$v/@k >= 7", "a b d", comparisons=3,
                 accesses=0)

    def test_conjuncts_intersect(self):
        self.ids("/r/ps/p", "$v/n/text() = 7 and $v/f/text() > 1",
                 "a d", accesses=2)
        self.ids("/r/ps/p", '$v/n/text() >= 7 and $v/n/text() < 31 '
                 'and $v/@id != "a"', "b d", comparisons=3, accesses=2)
        # One exact, one not: only the second is compared, and only
        # on what the first let through.
        self.ids("/r/ps/p", "$v/n/text() = 7 and $v/s/text() = 7",
                 "a", comparisons=2, accesses=1)

    def test_existence(self):
        self.ids("/r/ps/p", "empty($v/@k)", "c", accesses=0)
        self.ids("/r/ps/p", "not(empty($v/@k))", "a b d", accesses=0)
        self.ids("/r/ps/p", "empty($v/i/@c) and $v/n/text() = 7", "d",
                 accesses=1)
        self.ids("/r/ps/p", "empty($v/ghost/text())", "a b c d")
        self.ids("/r/ps/p", "not(empty($v/ghost/text()))", "")
        self.ids("/r/ps/p", '$v/ghost/@x = "1"', "")

    def test_owner_of_several_values_binds_once(self):
        self.ids("/r/ps/p", '$v/i/@c = "c1"', "a", accesses=1)
        self.ids("/r/ps/p", '$v/i/@c >= "c1"', "a b", accesses=1)
        self.ids("/r/ps/p", '$v/i/@c = "c1" and $v/i/@c = "c2"', "a",
                 accesses=2)

    def test_descendant_source_reaches_nested_elements(self):
        # //p: /r/ps/p and /r/ps/p/p — two containers per leaf path.
        self.ids("//p", "$v/n/text() = 7", "a d e", accesses=2)
        # The nested <s> container holds "7" alone and is typed int:
        # the text constant is compared on what the first term left.
        self.ids("//p", 'empty($v/f/text()) and $v/s/text() = "7"', "e",
                 comparisons=1, accesses=0)
        self.ids("/r/ps/p/p", "$v/n/text() = 7", "e", accesses=1)

    def test_step_predicates_with_and_without_a_where(self):
        self.ids('/r/ps/p[@id = "d"]', "$v/n/text() = 7", "d",
                 accesses=2)
        self.ids("//p[n/text() = 7][not(empty(f/text()))]",
                 '$v/@id > "a"', "d", accesses=4)   # n and @id twice
        assert_parity(self.XML,
                      'for $v in //p[@id = "e"] return $v/s/text()',
                      ("ok", "7"))
        # Not a term (position; number against text): per step.
        self.ids("/r/ps/p[2]", "$v/n/text() = 10", "b", comparisons=1,
                 accesses=0)
        self.ids("/r/ps/p[s/text() = 7]", "$v/n/text() = 7", "a",
                 comparisons=6, accesses=0)

    def test_inner_clause_selects_once(self):
        query = ("for $a in /r/ps/p, $b in /r/ps/p where $b/n/text() = 7 "
                 "return $b/@id")
        assert_parity(self.XML, query, ("ok", "\n".join("ad" * 4)))
        stats, recorder = self.run(query)
        assert stats.container_accesses == 1
        assert recorder.predicates == [("/r/ps/p/n/#text", "eq")]

    def test_blob_container_keeps_the_check(self):
        from repro.partitioning.config import (
            CompressionConfiguration,
            ContainerGroup,
        )
        configuration = CompressionConfiguration(groups=[
            ContainerGroup(("/r/ps/p/@id",), "bzip2")])
        engine = QueryEngine(load_document(
            self.XML, configuration=configuration))
        assert engine.repository.container("/r/ps/p/@id").is_blob
        where = 'for $v in /r/ps/p where $v/@id >= "c" return $v/@id'
        result = engine.execute(where)
        assert result.items == ["c", "d"]
        assert result.stats.container_accesses == 1
        assert result.stats.decompressed_comparisons \
            + result.stats.compressed_comparisons == 2
        predicate = engine.execute(
            'for $v in /r/ps/p[@id >= "c"] return $v/@id')
        assert predicate.items == ["c", "d"]
        assert predicate.stats.container_accesses == 0


class TestSubstringCandidates:
    """``contains`` / ``word-contains`` start from the containers'
    q-gram candidates — a superset — and are re-checked per binding.
    Each case is a candidate only the re-check tells from a result (or
    a result the hop count must not lose); the counters say the index
    was asked and how many bindings it left to check."""

    XML = ("<r>"
           # a: the needle sits in the second text node only.
           '<item id="a"><d><t>plain brass</t><t>pure gold</t></d></item>'
           # b: "go" ends one text node, "ld" starts the next.
           '<item id="b"><d><t>indigo</t><t>ld lamp</t></d></item>'
           # c: a longer word around the needle.
           '<item id="c"><d><t>golden bowl</t></d></item>'
           # d: an item inside an item, the needle in the inner one.
           '<item id="d"><d><t>tin cup</t></d>'
           '<item id="e"><d><t>gold leaf</t></d></item></item>'
           '<item id="f"><d><t>Gold ring</t></d></item>'
           "</r>")

    def ids(self, where, expected, *, bound=None, accesses=3):
        """``where`` over ``//item`` selects ``expected`` after
        ``accesses`` probes — /r/item/d/t once, /r/item/item/d/t once
        per item above it; ``bound``: the bindings a ``contains``
        re-checked (it decodes the first text node of each)."""
        query = f"for $v in //item where {where} return $v/@id"
        assert_parity(self.XML, query,
                      ("ok", "\n".join(expected.split())))
        stats = QueryEngine(load_document(self.XML)).execute(query).stats
        assert stats.container_accesses == accesses
        if bound is not None:
            assert stats.decompressions == bound

    def test_contains_reads_the_first_text_node_only(self):
        # Bound: a (second node), c, e, f ("Gold" folds to the same
        # q-grams) and d, which e's value also lies below.
        self.ids('contains($v/d/t/text(), "gold")', "c e", bound=5)
        self.ids('contains($v/d/t/text(), "Gold")', "f", bound=5)

    def test_word_contains_reads_every_text_node(self):
        self.ids('word-contains($v/d/t/text(), "gold")', "a e f")
        self.ids('word-contains($v/d/t/text(), "GOLD leaf")', "e")

    def test_longer_word_is_a_candidate_not_a_result(self):
        self.ids('word-contains($v/d/t/text(), "gold")', "a e f")
        self.ids('word-contains($v/d/t/text(), "golden")', "c")
        self.ids('contains($v/d/t/text(), "olde")', "c", bound=1)

    def test_needle_across_two_text_nodes_is_no_candidate(self):
        self.ids('contains($v/d/t/text(), "gold lamp")', "", bound=0)
        self.ids('contains($v/d/t/text(), "igold")', "", bound=0)
        self.ids('word-contains($v/d/t/text(), "indigold")', "")

    def test_nested_item_binds_every_item_above_the_value(self):
        # e's text is text of d as well under //, not under d/t.
        self.ids('word-contains($v//text(), "leaf")', "d e")
        self.ids('contains($v//text(), "gold leaf")', "e", bound=2)
        self.ids('word-contains($v/d//text(), "leaf")', "e")
        self.ids('contains($v/d//text(), "tin")', "d", bound=1)

    def test_short_and_empty_needles_are_checked_per_binding(self):
        self.ids('contains($v/d/t/text(), "go")', "b c e", bound=6,
                 accesses=0)
        self.ids('contains($v/d/t/text(), "")', "a b c d e f", bound=6,
                 accesses=0)
        self.ids('word-contains($v/d/t/text(), "")', "", accesses=0)
        self.ids('word-contains($v/d/t/text(), "a of")', "", accesses=0)


class TestDivisionByZero:
    """Bug: engine raised bare ZeroDivisionError while the reference

    produced infinities that crashed during rendering; both must raise
    the same :class:`~repro.errors.QueryTypeError`.
    """

    XML = "<doc><p><q>0</q></p></doc>"

    @pytest.mark.parametrize("op", ["div", "mod"])
    def test_literal_division_by_zero(self, op):
        assert_parity(self.XML, f"1 {op} 2 {op} 0",
                      ("error", "QueryTypeError"))

    def test_division_by_zero_container_value(self):
        assert_parity(self.XML,
                      "for $p in /doc/p return 5 div $p/q/text()",
                      ("error", "QueryTypeError"))


class TestDistinctValuesRepresentations:
    """Bug: distinct-values compared compressed items from different

    containers (different codecs) and plain strings by identity, so
    equal values survived deduplication.
    """

    XML = ("<doc><p><name>ada</name><city>ada</city></p>"
           "<p><name>bob</name><city>oslo</city></p></doc>")

    def test_dedupe_across_containers(self):
        assert_parity(
            self.XML,
            'count(distinct-values((/doc/p/name/text(), '
            '/doc/p/city/text())))',
            ("ok", "3"))   # ada, bob, oslo

    def test_dedupe_against_literal(self):
        assert_parity(
            self.XML,
            'count(distinct-values((/doc/p/name/text(), "ada")))',
            ("ok", "2"))

    def test_same_container_still_dedupes_compressed(self):
        xml = "<doc><p><name>x</name></p><p><name>x</name></p></doc>"
        assert_parity(xml,
                      "count(distinct-values(/doc/p/name/text()))",
                      ("ok", "1"))


class TestNumericConversionErrors:
    """Bug: converting non-numeric text raised a bare ValueError that

    escaped the engine as a crash; the reference raised its own.  Both
    now raise :class:`~repro.errors.QueryTypeError`.
    """

    XML = "<doc><p><name>ada</name></p></doc>"

    def test_sum_over_text(self):
        assert_parity(self.XML, "sum(/doc/p/name/text())",
                      ("error", "QueryTypeError"))

    def test_arithmetic_over_text(self):
        assert_parity(self.XML,
                      "for $p in /doc/p return $p/name/text() + 1",
                      ("error", "QueryTypeError"))


class TestNegativeZero:
    """Bug: "-0.0" was accepted as a canonical float, but the total-

    order encoding places -0.0 strictly below 0.0 while comparisons
    treat them as equal — breaking the container's sortedness
    assumptions.  "-0.0" now stays in a string container and constant
    ``-0.0`` normalizes to ``0.0``.
    """

    XML = ("<doc><p><v>-0.0</v></p><p><v>0.0</v></p>"
           "<p><v>1.5</v></p></doc>")

    def test_mixed_zero_signs_load_and_query(self):
        assert_parity(self.XML, 'count(/doc/p[v/text() = "-0.0"])',
                      ("ok", "1"))

    def test_negative_zero_constant_normalizes(self):
        assert_parity(self.XML, "-0.0 = 0.0", ("ok", "True"))

    def test_document_reconstructs_verbatim(self):
        repository = load_document(self.XML)
        engine = QueryEngine(repository)
        text = serialize(engine.materialize_node(0, EvaluationStats()))
        assert "<v>-0.0</v>" in text


class TestNonFiniteRendering:
    """Bug: the engines rendered inf/nan as Python's ``inf``/``nan``

    instead of XQuery's ``INF``/``-INF``/``NaN`` (and disagreed with
    each other).
    """

    XML = "<doc><v>1e308</v></doc>"

    def test_overflow_to_inf_renders_as_INF(self):
        assert_parity(self.XML,
                      "for $v in /doc/v return $v/text() * 10",
                      ("ok", "INF"))


class TestMixedContentStringValue:
    """Bug: a node's string value concatenated its own texts before its
    children's, so ``string(/r/a)`` over ``<a>x<b>y</b>z</a>`` was
    ``"xzy"``; comparisons and ``contains`` over the atomized node saw
    the same wrong order.  The reference gives ``"xyz"``.
    """

    XML = "<r><a>x<b>y</b>z</a><a>p<b>q<c>s</c>t</b></a></r>"

    def test_string_value_in_document_order(self):
        assert_parity(self.XML, "string(/r/a[1])", ("ok", "xyz"))
        assert_parity(self.XML, "string(/r/a[2])", ("ok", "pqst"))

    def test_comparison_atomizes_in_document_order(self):
        assert_parity(self.XML,
                      'for $a in /r/a where $a = "xyz" return $a/b',
                      ("ok", "<b>y</b>"))

    def test_contains_spans_the_child(self):
        assert_parity(self.XML,
                      'count(for $a in /r/a where contains($a, "xy") '
                      'return $a)', ("ok", "1"))

    def test_one_decompression_per_atomization(self):
        repository = load_document(self.XML)
        result = QueryEngine(repository).execute("string(/r/a[1])")
        assert result.to_xml() == "xyz"
        assert result.stats.decompressions == 1
