"""Tests for the XQuery-subset parser."""

import pytest

from repro.errors import QuerySyntaxError, UnsupportedFeatureError
from repro.query.ast import (
    Arithmetic,
    Comparison,
    ContextItem,
    ElementConstructor,
    FLWOR,
    ForClause,
    FunctionCall,
    LetClause,
    Logical,
    NumberLiteral,
    PathExpr,
    StringLiteral,
    TextLiteral,
    VarRef,
)
from repro.query.parser import parse_path_steps, parse_query


class TestPaths:
    def test_absolute_path(self):
        ast = parse_query("/site/people/person")
        assert isinstance(ast, PathExpr)
        assert ast.start is None
        assert [(s.axis, s.test) for s in ast.steps] == [
            ("child", "site"), ("child", "people"), ("child", "person")]

    def test_descendant_axis(self):
        ast = parse_query("//item")
        assert ast.steps[0].axis == "descendant"

    def test_document_function(self):
        ast = parse_query('document("auction.xml")/site')
        assert isinstance(ast, PathExpr) and ast.start is None

    def test_attribute_and_text_steps(self):
        ast = parse_query("$p/@id")
        assert ast.steps[0].axis == "attribute"
        ast = parse_query("$p/name/text()")
        assert ast.steps[-1].test == "text()"

    def test_wildcard(self):
        ast = parse_query("/site/*")
        assert ast.steps[1].test == "*"

    def test_step_predicates(self):
        ast = parse_query('/site/person[@id = "p0"][2]')
        person = ast.steps[1]
        assert len(person.predicates) == 2
        assert isinstance(person.predicates[0], Comparison)
        assert isinstance(person.predicates[1], NumberLiteral)

    def test_relative_path_in_predicate(self):
        ast = parse_query("/site/item[price > 100]")
        predicate = ast.steps[1].predicates[0]
        assert isinstance(predicate.left, PathExpr)
        assert isinstance(predicate.left.start, ContextItem)


class TestFLWOR:
    Q = """
    for $p in document("auction.xml")/site/people/person
    let $n := $p/name
    where $p/@id = "person0" and count($n) > 0
    return $n/text()
    """

    def test_shape(self):
        ast = parse_query(self.Q)
        assert isinstance(ast, FLWOR)
        assert isinstance(ast.clauses[0], ForClause)
        assert isinstance(ast.clauses[1], LetClause)
        assert isinstance(ast.where, Logical)
        assert isinstance(ast.result, PathExpr)

    def test_multiple_for_bindings(self):
        ast = parse_query(
            "for $a in /x/a, $b in /x/b return $a")
        assert [c.var for c in ast.clauses] == ["a", "b"]

    def test_nested_flwor_in_let(self):
        ast = parse_query(
            "for $p in /s/p let $a := for $t in /s/t "
            "where $t/@r = $p/@id return $t return count($a)")
        assert isinstance(ast.clauses[1].source, FLWOR)

    def test_where_optional(self):
        ast = parse_query("for $x in /a return $x")
        assert ast.where is None


class TestExpressions:
    def test_precedence_or_and(self):
        ast = parse_query("for $x in /a where 1 = 1 or 2 = 2 and 3 = 3 "
                          "return $x")
        assert ast.where.op == "or"
        assert ast.where.right.op == "and"

    def test_arithmetic_precedence(self):
        ast = parse_query("1 + 2 * 3")
        assert isinstance(ast, Arithmetic) and ast.op == "+"
        assert ast.right.op == "*"

    def test_comparison_operators(self):
        for op_text, op in [("=", "="), ("!=", "!="), ("<", "<"),
                            ("<=", "<="), (">", ">"), (">=", ">=")]:
            ast = parse_query(f"1 {op_text} 2")
            assert isinstance(ast, Comparison) and ast.op == op

    def test_function_call(self):
        ast = parse_query('contains($d, "gold")')
        assert isinstance(ast, FunctionCall)
        assert ast.name == "contains" and len(ast.args) == 2

    def test_unknown_function_rejected(self):
        with pytest.raises(UnsupportedFeatureError):
            parse_query("frobnicate($x)")

    def test_sequence(self):
        ast = parse_query("(1, 2, 3)")
        assert len(ast.items) == 3

    def test_parenthesized_single(self):
        ast = parse_query('("x")')
        assert isinstance(ast, StringLiteral)

    def test_unary_minus(self):
        ast = parse_query("-5")
        assert isinstance(ast, Arithmetic) and ast.op == "-"


class TestConstructors:
    def test_empty_element(self):
        ast = parse_query("<result/>")
        assert isinstance(ast, ElementConstructor)
        assert ast.name == "result"

    def test_text_content(self):
        ast = parse_query("<a>hello</a>")
        assert isinstance(ast.content[0], TextLiteral)

    def test_embedded_expression(self):
        ast = parse_query("<a>{$x/name}</a>")
        assert isinstance(ast.content[0], PathExpr)

    def test_nested_constructor(self):
        ast = parse_query("<a><b>{$x}</b></a>")
        inner = ast.content[0]
        assert isinstance(inner, ElementConstructor)
        assert inner.name == "b"
        assert isinstance(inner.content[0], VarRef)

    def test_attribute_with_expression(self):
        ast = parse_query('<person name="{$p/name/text()}"/>')
        (attr_name, parts), = ast.attributes
        assert attr_name == "name"
        assert isinstance(parts[0], PathExpr)

    def test_mismatched_end_tag(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("<a></b>")

    def test_flwor_inside_constructor(self):
        ast = parse_query(
            "<out>{for $x in /a/b return $x/text()}</out>")
        assert isinstance(ast.content[0], FLWOR)

    def test_attribute_text_after_expression_kept_whole(self):
        ast = parse_query('<r b="{1} x { 2 }  y"/>')
        (_, parts), = ast.attributes
        assert [part.value for part in parts
                if isinstance(part, TextLiteral)] == [" x ", "  y"]

    def test_content_text_after_expression_keeps_its_whitespace(self):
        ast = parse_query("<r>{1} y {2}  {3}\n z</r>")
        assert [part.value for part in ast.content
                if isinstance(part, TextLiteral)] == [" y ", "\n z"]
        # Whitespace-only text between two expressions is dropped.
        assert len(ast.content) == 5

    @pytest.mark.parametrize("text, content", [
        ("<r><b/> x</r>", ["b", " x"]),
        ("<r><b></b> x{1}</r>", ["b", " x", 1.0]),
    ])
    def test_content_text_after_nested_constructor_keeps_its_whitespace(
            self, text, content):
        ast = parse_query(text)
        assert [part.name if isinstance(part, ElementConstructor)
                else part.value for part in ast.content] == content


class TestErrors:
    @pytest.mark.parametrize("text", [
        "for $x return $x",     # missing 'in'
        "for in /a return 1",   # missing variable
        "1 +",                  # dangling operator
        "/a/b[",                # unterminated predicate
        "for $x in /a",         # missing return
        "$x extra garbage $y",  # trailing input
        "",                     # empty query
    ])
    def test_rejected(self, text):
        with pytest.raises(QuerySyntaxError):
            parse_query(text)


class TestParsePathSteps:
    def test_basic(self):
        assert parse_path_steps("/site//item/@id") == [
            ("child", "site"), ("descendant", "item"), ("child", "@id")]

    def test_requires_leading_slash(self):
        with pytest.raises(QuerySyntaxError):
            parse_path_steps("site/people")
