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
        from repro.obs import runtime
        from repro.verify.engine_oracle import _BlameRecorder
        recorder = _BlameRecorder()
        with runtime.recording(recorder):
            result = QueryEngine(load_document(xml)).execute(query)
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
        assert {kind for _, kind in recorder.predicates} == {"ineq"}

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
