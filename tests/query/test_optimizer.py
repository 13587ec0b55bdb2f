"""Tests for query analysis and access-path selection."""

from repro.query.ast import Comparison, NumberLiteral, StringLiteral
from repro.query.optimizer import (
    JoinPlan,
    SelectionPlan,
    ThetaPlan,
    context_free,
    find_join_plan,
    find_range_plan,
    find_selection_plan,
    find_theta_plan,
    flatten_conjuncts,
    free_vars,
    is_absolute_simple_path,
    plan_query,
)
from repro.query.parser import parse_query


def where_of(query: str):
    return parse_query(query).where


class TestFreeVars:
    def test_simple(self):
        expr = parse_query("$a/name/text()")
        assert free_vars(expr) == {"a"}

    def test_flwor_binds(self):
        expr = parse_query("for $x in /a/b return $x/c")
        assert free_vars(expr) == frozenset()

    def test_flwor_outer_reference(self):
        expr = parse_query("for $x in /a/b where $x/@id = $y return $x")
        assert free_vars(expr) == {"y"}

    def test_predicate_vars_counted(self):
        expr = parse_query("/a/b[@id = $z]")
        assert free_vars(expr) == {"z"}

    def test_constructor_vars(self):
        expr = parse_query('<out a="{$p}">{$q}</out>')
        assert free_vars(expr) == {"p", "q"}

    def test_none(self):
        assert free_vars(None) == frozenset()


class TestFlattenConjuncts:
    def test_nested_ands(self):
        where = where_of(
            "for $x in /a where 1 = 1 and 2 = 2 and 3 = 3 return $x")
        assert len(flatten_conjuncts(where)) == 3

    def test_or_not_split(self):
        where = where_of(
            "for $x in /a where 1 = 1 or 2 = 2 return $x")
        assert len(flatten_conjuncts(where)) == 1

    def test_none(self):
        assert flatten_conjuncts(None) == []


class TestJoinPlans:
    def test_classic_join(self):
        where = where_of(
            "for $t in /s/t where $t/buyer/@person = $p/@id return $t")
        plan = find_join_plan(where, "t", {"p"})
        assert plan is not None
        assert free_vars(plan.build_expr) == {"t"}
        assert free_vars(plan.probe_expr) == {"p"}

    def test_swapped_sides(self):
        where = where_of(
            "for $t in /s/t where $p/@id = $t/buyer/@person return $t")
        plan = find_join_plan(where, "t", {"p"})
        assert plan is not None
        assert free_vars(plan.build_expr) == {"t"}

    def test_constant_comparison_is_not_a_join(self):
        where = where_of(
            'for $t in /s/t where $t/@id = "x" return $t')
        assert find_join_plan(where, "t", set()) is None

    def test_inequality_not_hash_joinable(self):
        where = where_of(
            "for $t in /s/t where $t/@id < $p/@id return $t")
        assert find_join_plan(where, "t", {"p"}) is None

    def test_unbound_probe_rejected(self):
        where = where_of(
            "for $t in /s/t where $t/@id = $unbound/@id return $t")
        assert find_join_plan(where, "t", set()) is None


class TestThetaPlans:
    def theta(self, condition, bound=("p",)):
        where = where_of(f"for $i in /s/i where {condition} return $i")
        return find_theta_plan(where, "i", set(bound))

    def test_scaled_key_either_operand_order(self):
        for condition, op in (
                ("$p/@income > 50 * $i/initial/text()", "<"),
                ("$i/initial/text() * 50 <= $p/@income", "<=")):
            plan = self.theta(condition)
            assert (plan.op, plan.scale, plan.ascend) == (op, 50.0, 1)
            assert free_vars(plan.probe_expr) == {"p"}
            assert [s.test for s in plan.leaf_steps] == \
                ["initial", "text()"]

    def test_plain_key_has_no_scale(self):
        plan = self.theta("$i/@a >= 2 * $p/b/text()")
        assert (plan.op, plan.scale, plan.ascend) == (">=", None, 0)

    def test_plans_are_hashable_values(self):
        condition = "$p/@income > 50 * $i/initial/text()"
        assert self.theta(condition) == self.theta(condition)
        assert len({self.theta(condition), self.theta(condition)}) == 1

    def test_rejected_shapes(self):
        for condition in (
                "$p/@income = 50 * $i/initial/text()",    # hash join
                "$p/@income > 0 * $i/initial/text()",     # order lost
                "$p/@income > -2 * $i/initial/text()",    # order flipped
                "$p/@income > $i/initial/text() + 1",     # not K * path
                "$p/@income > 2 * $i//initial/text()",    # no one leaf
                "$p/@income > 2 * $i/b[1]/text()",
                "$i/@a > 2 * $i/b/text()",                # one variable
                "$i/@a > 40",                             # a selection
                "$i/@a > $q/@b"):                         # $q unbound
            assert self.theta(condition) is None, condition

    def test_shadowed_clause_variable_is_not_a_probe(self):
        assert self.theta("$i/@a > 2 * $i/b/text()", ("i",)) is None


class TestRangePlans:
    def test_equality(self):
        where = where_of(
            'for $v in /a/b where $v/name/text() = "x" return $v')
        plan = find_range_plan(where, "v")
        assert plan is not None
        assert (plan.low, plan.high) == ("x", "x")
        assert plan.ascend == 1
        assert plan.constant_kind == "string"

    def test_attribute_no_ascend(self):
        where = where_of(
            'for $v in /a/b where $v/@id = "x" return $v')
        plan = find_range_plan(where, "v")
        assert plan is not None and plan.ascend == 0

    def test_inequality_bounds(self):
        for op, low, high, li, hi in (
                ("<", None, "m", True, False),
                ("<=", None, "m", True, True),
                (">", "m", None, False, True),
                (">=", "m", None, True, True)):
            where = where_of(
                f'for $v in /a/b where $v/c/text() {op} "m" return $v')
            plan = find_range_plan(where, "v")
            assert plan is not None, op
            assert (plan.low, plan.high) == (low, high)
            assert (plan.low_inclusive, plan.high_inclusive) == (li, hi)

    def test_swapped_constant_side_flips(self):
        where = where_of(
            'for $v in /a/b where "m" < $v/c/text() return $v')
        plan = find_range_plan(where, "v")
        assert plan is not None
        assert plan.low == "m" and plan.high is None

    def test_numeric_constant_kind(self):
        where = where_of(
            "for $v in /a/b where $v/c/text() > 40 return $v")
        plan = find_range_plan(where, "v")
        assert plan is not None and plan.constant_kind == "number"

    def test_descendant_path_rejected(self):
        where = where_of(
            'for $v in /a/b where $v//c/text() = "x" return $v')
        assert find_range_plan(where, "v") is None

    def test_predicated_path_rejected(self):
        where = where_of(
            'for $v in /a/b where $v/c[2]/text() = "x" return $v')
        assert find_range_plan(where, "v") is None

    def test_element_terminal_rejected(self):
        # $v/c atomizes the node; that is not a root-to-leaf container.
        where = where_of(
            'for $v in /a/b where $v/c = "x" return $v')
        assert find_range_plan(where, "v") is None

    def test_join_comparison_rejected(self):
        where = where_of(
            "for $v in /a/b where $v/c/text() = $w/d/text() return $v")
        assert find_range_plan(where, "v") is None


class TestSelectionPlans:
    @staticmethod
    def plan(query: str):
        flwor = parse_query(query)
        return find_selection_plan(flwor.clauses[0],
                                   flatten_conjuncts(flwor.where))

    def kinds(self, query: str):
        plan = self.plan(query)
        return None if plan is None else \
            [(t.kind, t.range.low, t.range.high, t.range.ascend)
             for t in plan.terms]

    def test_every_single_variable_conjunct_is_a_term(self):
        assert self.kinds(
            'for $v in /a//b where $v/c/text() >= 3 and "m" > $v/@k '
            "and empty($v/d/e/text()) and not(empty($v/@k)) "
            "return $v") == [
            ("interval", "3", None, 1), ("interval", None, "m", 0),
            ("not-exists", None, None, 2), ("exists", None, None, 0)]

    def test_element_existence_is_a_term(self):
        # The summary's extents answer it: Parent hops off the element,
        # n (None) of them past a ``//``.
        assert self.kinds(
            "for $v in /a/b[c/d] where empty($v/e) and "
            "not(empty($v//f)) and $v/g return $v") == [
            ("exists", None, None, 2), ("not-exists", None, None, 1),
            ("exists", None, None, None), ("exists", None, None, 1)]

    def test_both_operand_orders_give_one_interval(self):
        for where in ("$v/c/text() < 7", "7 > $v/c/text()"):
            (term,) = self.plan(
                f"for $v in /a/b where {where} return $v").terms
            hops = term.range
            assert (hops.low, hops.high, hops.high_inclusive,
                    hops.constant_kind) == (None, "7", False, "number")

    def test_last_step_predicates_are_terms_on_the_bare_source(self):
        plan = self.plan('for $v in /a/b[@id = "x"][not(empty(c/text()))]'
                         ' where $v/@n > 1 return $v')
        assert plan.source == parse_query("/a/b")
        assert [t.kind for t in plan.terms] == \
            ["interval", "exists", "interval"]
        assert plan.terms[0].conjunct == \
            parse_query('/a/b[@id = "x"]').steps[-1].predicates[0]

    def test_other_conjuncts_stay_with_the_binding(self):
        plan = self.plan('for $v in /a/b where $v/c/text() = "x" and '
                         'starts-with($v/d/text(), "y") and $v/e = 1 '
                         "return $v")
        assert [t.kind for t in plan.terms] == ["interval"]

    def test_plans_are_hashable_values(self):
        query = ('for $v in /a/b[@id = "x"] where $v/c/text() >= 3 '
                 "and empty($v/@k) return $v")
        assert self.plan(query) == self.plan(query)
        assert len({self.plan(query), self.plan(query)}) == 1
        assert self.plan(query).terms[0].exact

    def test_refused_shapes(self):
        for query in (
                'for $v in /a/b[@id = "x"]/c where $v/@k = 1 return $v',
                'for $v in /a/b[1] where $v/@k = 1 return $v',
                'for $v in /a/b[@id = "x"][2] return $v',
                'for $v in /a/b[c = "x"] return $v',      # c atomizes
                'for $v in /a/b[@id = $w/@id] return $v',
                "for $v in $w/b where $v/@k = 1 return $v",
                "for $v in /a/b/text() where $v = 1 return $v",
                "for $v in /a/b where $v/@k != 1 return $v",
                "for $v in /a/b where $v/@k = $v/@j return $v",
                "for $v in /a/b where $v/@k = $w/@k return $v",
                "for $v in /a/b where not($v/@k = 1) return $v",
                "for $v in /a/b where empty($v/c[1]) return $v",
                "for $v in /a/b where not($v/c) return $v",
                "for $v in /a/b[@k] return $v",           # a value
                "for $v in /a/b where empty($v//c/text()) return $v",
                "for $v in /a/b return $v"):
            assert self.plan(query) is None, query


class TestPathClassifiers:
    def test_absolute_simple(self):
        assert is_absolute_simple_path(parse_query("/a/b//c"))

    def test_relative_not_absolute(self):
        assert not is_absolute_simple_path(parse_query("$x/a"))

    def test_predicates_disqualify(self):
        assert not is_absolute_simple_path(parse_query("/a/b[1]"))

    def test_literal_not_a_path(self):
        assert not is_absolute_simple_path(StringLiteral("x"))

    def test_context_free(self):
        assert context_free(parse_query("/a/b"))
        assert context_free(parse_query("for $x in /a return $x"))
        assert not context_free(parse_query("/a/b[@id = 'x']")
                                .steps[1].predicates[0])

    def test_context_item_detected(self):
        predicate = parse_query("/a/b[c > 1]").steps[1].predicates[0]
        assert isinstance(predicate, Comparison)
        assert not context_free(predicate)

    def test_literals_context_free(self):
        assert context_free(NumberLiteral(1.0))


class TestFullTextPlans:
    """``contains`` / ``word-contains`` conjuncts as ``substring``
    selection terms."""

    @staticmethod
    def term(conjunct: str):
        flwor = parse_query(
            f"for $v in /a/b where {conjunct} return $v")
        plan = find_selection_plan(flwor.clauses[0],
                                   flatten_conjuncts(flwor.where))
        return None if plan is None else plan.terms[0]

    def test_classified(self):
        for function in ("contains", "word-contains"):
            term = self.term(f'{function}($v/d/text(), "gold")')
            assert (term.kind, term.needle) == ("substring", "gold")
            # contains with q characters or more is decided on the
            # positions; whole words in any case are re-checked.
            assert term.exact == (function == "contains")
        # Below q characters there is no q-gram to place.
        assert not self.term('contains($v/d/text(), "go")').exact

    def test_descendant_and_attribute_leaves_classified(self):
        for leaf in ("$v/d//text()", "$v//text()", "$v//d/e/text()",
                     "$v/@k", "$v/d/@k"):
            term = self.term(f'contains({leaf}, "gold")')
            assert term.kind == "substring", leaf
            # Hops are read per container from the summary.
            assert term.range.ascend is None

    def test_multi_word_needle_split(self):
        # Every word must be in the value; the longest is looked up.
        term = self.term('word-contains($v/d/text(), "a golden bowl")')
        assert term.needle == "golden"
        # contains wants the literal as it stands.
        term = self.term('contains($v/d/text(), "a golden bowl")')
        assert term.needle == "a golden bowl"

    def test_non_literal_needle_rejected(self):
        assert self.term("word-contains($v/d/text(), $w)") is None
        assert self.term("contains($v/d/text(), $v/e/text())") is None

    def test_contains_not_indexable(self):
        # Only a bare leaf path of the clause variable has containers:
        # a wrapped, element-valued or predicated one does not.
        for haystack in ("string($v/d/text())", "$v/d", "$v/d[1]/text()",
                         "$w/d/text()", "/a/b/d/text()"):
            assert self.term(f'contains({haystack}, "gold")') is None, \
                haystack

    def test_empty_needle_rejected(self):
        # No word: word-contains is false; "": contains is true — on
        # every binding, items without text included.
        assert self.term('word-contains($v/d/text(), "  ")') is None
        assert self.term('contains($v/d/text(), "")') is None

    def test_step_predicates_keep_per_step_evaluation(self):
        # A predicate has no per-binding re-check to lean on: only an
        # exact term serves it, anything else keeps per-step evaluation.
        for conjunct, exact in (('contains(d/text(), "gold")', True),
                                ('contains(d/text(), "go")', False),
                                ('word-contains(d/text(), "gold")', False)):
            flwor = parse_query(f"for $v in /a/b[{conjunct}] return $v")
            plan = find_selection_plan(flwor.clauses[0], [])
            assert (plan is not None) == exact, conjunct
            assert plan is None or plan.terms[0].exact


class TestFlip:
    """`_flip` mirrors a comparison when the constant is on the left."""

    def test_every_operator_flips(self):
        from repro.query.optimizer import _flip
        assert _flip("=") == "="
        assert _flip("!=") == "!="
        assert _flip("<") == ">"
        assert _flip("<=") == ">="
        assert _flip(">") == "<"
        assert _flip(">=") == "<="

    def test_flip_is_an_involution(self):
        from repro.query.optimizer import _flip
        for op in ("=", "!=", "<", "<=", ">", ">="):
            assert _flip(_flip(op)) == op

    def test_flipped_inequality_bounds(self):
        """`const op path` must produce the mirrored interval of
        `path flipped-op const` for every inequality."""
        for op, low, high, li, hi in (
                ("<", "m", None, False, True),   # "m" < $v/c
                ("<=", "m", None, True, True),
                (">", None, "m", True, False),   # "m" > $v/c
                (">=", None, "m", True, True)):
            where = where_of(
                f'for $v in /a/b where "m" {op} $v/c/text() return $v')
            plan = find_range_plan(where, "v")
            assert plan is not None, op
            assert (plan.low, plan.high) == (low, high), op
            assert (plan.low_inclusive, plan.high_inclusive) == \
                (li, hi), op

    def test_flipped_join_probe_sides(self):
        """find_join_plan puts build/probe right regardless of which
        side mentions the clause variable."""
        left = where_of("for $v in /a/b where $v/c = $w/d return $v")
        right = where_of("for $v in /a/b where $w/d = $v/c return $v")
        for where in (left, right):
            plan = find_join_plan(where, "v", {"w"})
            assert plan is not None
            assert free_vars(plan.build_expr) == {"v"}
            assert free_vars(plan.probe_expr) == {"w"}


class TestVerifierAgreement:
    """The static verifier classifies flipped comparisons exactly as
    the optimizer evaluates them (satellite check of the lint issue)."""

    def _repo(self, codec: str):
        from repro.partitioning.config import (
            CompressionConfiguration,
            ContainerGroup,
        )
        from repro.storage.loader import load_document
        xml = "<a>" + "".join(
            f"<b><c>v{i:02d}</c></b>" for i in range(8)) + "</a>"
        configuration = CompressionConfiguration(groups=[
            ContainerGroup(("/a/b/c/#text",), codec)])
        return load_document(xml, configuration=configuration)

    def _verify(self, codec: str, query: str):
        from repro.query.engine import QueryEngine
        return QueryEngine(self._repo(codec)).verify(query)

    def test_flipped_ineq_on_order_preserving_codec_clean(self):
        diagnostics = self._verify(
            "alm", 'for $v in /a/b where "v03" < $v/c/text() return $v')
        assert diagnostics == []

    def test_flipped_ineq_on_order_agnostic_codec_degrades(self):
        """huffman cannot answer the flipped `<` compressed: the plan
        decompresses first, so no error — only the pivot warning."""
        diagnostics = self._verify(
            "huffman",
            'for $v in /a/b where "v03" < $v/c/text() return $v')
        assert [d.severity for d in diagnostics] == ["warning"]
        assert [d.rule for d in diagnostics] == \
            ["plan.interval-decompressing"]

    def test_flipped_and_direct_forms_agree(self):
        direct = self._verify(
            "hutucker",
            'for $v in /a/b where $v/c/text() > "v03" return $v')
        flipped = self._verify(
            "hutucker",
            'for $v in /a/b where "v03" < $v/c/text() return $v')
        assert [d.rule for d in direct] == [d.rule for d in flipped]
        assert direct == flipped == []


class TestPlanQuery:
    """One walk, real scopes, one precedence."""

    @staticmethod
    def strategies(query: str):
        """Per FLWOR (outermost first), its clauses' chosen strategy."""
        return [[type(step.strategy).__name__ for step in flwor.clauses]
                for flwor in plan_query(parse_query(query)).flwors]

    def test_inner_flwor_sees_outer_variables_as_bound(self):
        for nest in ("let $a := {} return count($a)",
                     "return <n>{{{}}}</n>",
                     "return count({})",
                     "where not(empty({})) return $p",
                     "order by count({}) return $p",
                     'return <n k="{{{}}}"/>'):
            inner = "for $t in /s/t where $t/@p = $p/@id return $t"
            outer, nested = plan_query(parse_query(
                "for $p in /s/p " + nest.format(inner))).flwors
            assert outer.clauses[0].strategy is None
            join = nested.clauses[0].join
            assert join.probe_vars == ("p",), nest
            assert nested.residual == ()

    def test_let_variables_and_external_bindings_are_bound(self):
        (flwor,) = plan_query(parse_query(
            "for $t in /s/t where $t/@p = $wanted return $t")).flwors
        assert flwor.clauses[0].join.probe_vars == ("wanted",)
        outer, nested = plan_query(parse_query(
            "for $p in /s/p let $k := $p/@id return "
            "for $t in /s/t where $t/@p = $k return $t")).flwors
        assert [type(c.clause).__name__ for c in outer.clauses] == \
            ["ForClause", "LetClause"]
        assert nested.clauses[0].join.probe_vars == ("k",)

    def test_step_predicates_and_function_arguments_are_visited(self):
        plan = plan_query(parse_query(
            "/s/g[count(for $x in k, $t in t "
            "where $t/v/text() = $x/text() return $t) > 0]/k"))
        (flwor,) = plan.flwors
        first, second = flwor.clauses
        assert first.independent and not first.context_free
        assert isinstance(second.strategy, JoinPlan)

    def test_conjuncts_are_decided_at_the_first_clause_binding_them(self):
        (flwor,) = plan_query(parse_query(
            "for $a in /s/a, $b in /s/b, $c in /s/c where $c/@x = $a/@x "
            'and $a/k/text() = "1" and $b/@y = $a/@y and $q/z return $a'
        )).flwors
        assert [len(c.decidable) for c in flwor.clauses] == [2, 1, 1]
        assert flwor.residual == ()  # $q is external: bound from the start
        assert [type(c.strategy).__name__ for c in flwor.clauses] == \
            ["SelectionPlan", "JoinPlan", "JoinPlan"]

    def test_precedence_equality_beats_inequality(self):
        (clauses,) = self.strategies(
            "for $a in /s/a, $p in /s/p where "
            "$a/price/text() > 2 * $p/income/text() "
            "and $a/@buyer = $p/@id return $p")
        assert clauses == ["NoneType", "JoinPlan"]
        (flwor,) = plan_query(parse_query(
            "for $a in /s/a, $p in /s/p where "
            "$a/price/text() > 2 * $p/income/text() "
            "and $a/@buyer = $p/@id return $p")).flwors
        step = flwor.clauses[1]
        assert step.thetas == () and step.selection is None
        assert len(step.rest(step.join)) == 1

    def test_equality_join_key_paths(self):
        """Both sides simple value paths, the clause's source and the
        probe variable's for-source absolute: the plan carries what
        the MergeJoin reads — the probe source without predicates."""
        outer, nested = plan_query(parse_query(
            'for $p in /s/p[@k = "x"] return count(for $t in /s/t '
            "where $p/@id = $t/buyer/@person return $t)")).flwors
        join = nested.clauses[0].join
        assert [s.test for s in join.build_steps] == ["buyer", "person"]
        assert [s.test for s in join.probe_steps] == ["id"]
        assert join.probe_source == parse_query("/s/p")
        for query in (
                # the probe variable is bound by a let, externally, or
                # over a relative source; a key is an element; the
                # clause's own source has a predicate; two probe vars.
                "for $p in /s/p let $q := $p return for $t in /s/t "
                "where $t/@k = $q/@id return $t",
                "for $t in /s/t where $t/@k = $wanted/@id return $t",
                "for $g in /s/g, $x in $g/k return for $t in /s/t "
                "where $t/@k = $x/@id return $t",
                "for $p in /s/p, $t in /s/t where $t/k = $p/@id "
                "return $t",
                "for $p in /s/p, $t in /s/t[@a] where $t/@k = $p/@id "
                "return $t",
                "for $p in /s/p, $q in /s/q, $t in /s/t "
                "where $t/@k = $p/@id + $q/@id return $t"):
            join = plan_query(parse_query(query)).flwors[-1] \
                .clauses[-1].join
            assert join is not None and join.probe_source is None, query

    def test_probe_source_is_the_binding_in_scope(self):
        """Resolved lexically: an inner for of the same name shadows
        the outer one, a let of the same name hides it."""
        outer, nested = plan_query(parse_query(
            "for $p in /s/a return for $p in /s/b, $t in /s/t "
            "where $t/@k = $p/@id return $t")).flwors
        assert nested.clauses[1].join.probe_source == parse_query("/s/b")
        outer, nested = plan_query(parse_query(
            "for $p in /s/a let $p := /s/b return for $t in /s/t "
            "where $t/@k = $p/@id return $t")).flwors
        assert nested.clauses[0].join.probe_source is None

    def test_where_sees_the_last_binding_of_a_name(self):
        """A conjunct naming a variable a later clause binds again is
        decided there, not against the earlier binding."""
        (flwor,) = plan_query(parse_query(
            "for $p in /s/p, $t in /s/t, $p in /s/q "
            "where $t/@k = $p/@id return $t")).flwors
        assert [len(c.decidable) for c in flwor.clauses] == [0, 0, 1]
        join = flwor.clauses[2].join
        assert join.probe_vars == ("t",)
        assert join.probe_source == parse_query("/s/t")
        (flwor,) = plan_query(parse_query(
            "for $t in /s/t let $t := 1 where $t = 1 return $t")).flwors
        assert flwor.clauses[0].decidable == () and len(flwor.residual) == 1

    def test_clause_variable_is_never_its_own_probe(self):
        where = where_of("for $v in /a/b where $v/c = $v/d return $v")
        assert find_join_plan(where, "v", {"v"}) is None

    def test_precedence_equality_needs_an_independent_source(self):
        (clauses,) = self.strategies(
            "for $p in /s/p for $w in $p/w where $w/@a = $p/@id "
            "return $w")
        assert clauses == ["NoneType", "NoneType"]

    def test_precedence_inequality_beats_selection_beats_fulltext(self):
        query = ("for $p in /s/p, $a in /s/a where {} "
                 '$a/k/text() = "x" and word-contains($a/d/text(), "gold")'
                 " return $a")
        (flwor,) = plan_query(parse_query(query.format(
            "$a/price/text() > 2 * $p/income/text() and"))).flwors
        step = flwor.clauses[1]
        assert isinstance(step.strategy, ThetaPlan)
        # The candidates the engine falls back to when the data refuse.
        assert isinstance(step.selection, SelectionPlan)
        assert [t.kind for t in step.selection.terms] == \
            ["interval", "substring"]
        (flwor,) = plan_query(parse_query(query.format(""))).flwors
        assert isinstance(flwor.clauses[1].strategy, SelectionPlan)
        (flwor,) = plan_query(parse_query(
            'for $a in /s/a where word-contains($a/d/text(), "gold") '
            "return $a")).flwors
        assert [t.kind for t in flwor.clauses[0].strategy.terms] == \
            ["substring"]

    def test_equal_asts_plan_equal(self):
        from repro.xmark.queries import XMARK_QUERIES, query_text
        for query_id in XMARK_QUERIES:
            first, second = (plan_query(parse_query(query_text(query_id)))
                             for _ in range(2))
            assert first == second and hash(first) == hash(second)
        assert plan_query(parse_query("for $a in /s/a return $a")) != \
            plan_query(parse_query("for $a in /s/b return $a"))

    def test_absolute_paths_outside_for_sources_are_planned(self):
        """Every absolute path, a for-clause's source too, is bound to
        the summary access of its prefix."""
        from repro.query.engine import QueryEngine
        from repro.storage.loader import load_document
        repo = load_document(
            '<s><a k="1"/><b/><keys><k>1</k></keys><c/></s>')
        bound = QueryEngine(repo).prepare(
            "for $a in /s/a let $all := /s/b "
            "where $a/@k = /s/keys/k return count(/s/c)").bound
        assert sorted(len(access.steps)
                      for access in bound.paths.values()) == [2, 2, 2, 3]
