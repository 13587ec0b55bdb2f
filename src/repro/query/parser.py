"""Recursive-descent parser for the XQuery subset.

Grammar (informally)::

    Expr        := FLWOR | OrExpr
    FLWOR       := (ForClause | LetClause)+ ('where' OrExpr)? 'return' Expr
    ForClause   := 'for' '$'Name 'in' OrExpr (',' '$'Name 'in' OrExpr)*
    LetClause   := 'let' '$'Name ':=' OrExpr
    OrExpr      := AndExpr ('or' AndExpr)*
    AndExpr     := CmpExpr ('and' CmpExpr)*
    CmpExpr     := AddExpr (CmpOp AddExpr)?
    AddExpr     := MulExpr (('+'|'-') MulExpr)*
    MulExpr     := UnaryExpr (('*'|'div'|'mod') UnaryExpr)*
    UnaryExpr   := '-'? PathOrPrimary
    PathOrPrimary := Primary (('/'|'//') Step)*
                   | ('/'|'//') Step (('/'|'//') Step)*
    Primary     := '$'Name | Literal | 'document' '(' String ')'
                 | Name '(' Args ')' | '(' Expr (',' Expr)* ')'
                 | DirectConstructor
    Step        := ('@'Name | Name | '*' | 'text()') ('[' Expr ']')*

Direct element constructors are parsed by switching to raw text
scanning (see :mod:`repro.query.lexer`); ``{...}`` re-enters expression
parsing.
"""

from __future__ import annotations

from repro.errors import QuerySyntaxError, UnsupportedFeatureError
from repro.query.ast import (
    Arithmetic,
    Comparison,
    ContextItem,
    ElementConstructor,
    Expression,
    FLWOR,
    ForClause,
    FunctionCall,
    LetClause,
    Logical,
    NumberLiteral,
    OrderSpec,
    PathExpr,
    SequenceExpr,
    Step,
    StringLiteral,
    TextLiteral,
    VarRef,
)
from repro.query.lexer import Lexer, Token, TokenType

_COMPARISON_OPS = {"EQ": "=", "NE": "!=", "LT": "<", "LE": "<=",
                   "GT": ">", "GE": ">="}

KNOWN_FUNCTIONS = {"contains", "count", "sum", "avg", "min", "max",
                   "empty", "not", "starts-with", "string-length",
                   "zero-or-one", "number", "string", "data", "text",
                   "distinct-values", "word-contains"}


def parse_query(text: str) -> Expression:
    """Parse a query string into an AST; raises QuerySyntaxError."""
    parser = _Parser(text)
    expression = parser.parse_expression()
    trailing = parser.lexer.peek()
    if trailing.type != TokenType.EOF:
        raise QuerySyntaxError(
            f"unexpected trailing input {trailing.value!r}",
            trailing.position)
    return expression


class _Parser:
    def __init__(self, text: str):
        self.lexer = Lexer(text)

    # -- expressions --------------------------------------------------------

    def parse_expression(self) -> Expression:
        token = self.lexer.peek()
        if token.is_keyword("for") or token.is_keyword("let"):
            return self._parse_flwor()
        return self._parse_or()

    def _parse_flwor(self) -> Expression:
        clauses: list[ForClause | LetClause] = []
        while True:
            token = self.lexer.peek()
            if token.is_keyword("for"):
                self.lexer.next()
                clauses.append(self._parse_for_binding())
                while self.lexer.peek().is_punct("COMMA"):
                    self.lexer.next()
                    clauses.append(self._parse_for_binding())
            elif token.is_keyword("let"):
                self.lexer.next()
                clauses.append(self._parse_let_binding())
                while self.lexer.peek().is_punct("COMMA"):
                    self.lexer.next()
                    clauses.append(self._parse_let_binding())
            else:
                break
        if not clauses:
            raise QuerySyntaxError("expected 'for' or 'let'",
                                   self.lexer.peek().position)
        where = None
        if self.lexer.peek().is_keyword("where"):
            self.lexer.next()
            where = self._parse_or()
        order = self._parse_order_by()
        self.lexer.expect_keyword("return")
        result = self.parse_expression()
        return FLWOR(tuple(clauses), where, result, order)

    def _parse_order_by(self) -> tuple[OrderSpec, ...]:
        """``order by key [descending] (, key ...)`` — contextual:
        ``order``/``by``/``ascending``/``descending`` stay ordinary
        names everywhere else (they are common element names)."""
        token = self.lexer.peek()
        if not (token.type == TokenType.NAME and token.value == "order"
                and self.lexer.peek(1).type == TokenType.NAME
                and self.lexer.peek(1).value == "by"):
            return ()
        self.lexer.next()
        self.lexer.next()
        specs: list[OrderSpec] = []
        while True:
            key = self._parse_or()
            descending = False
            direction = self.lexer.peek()
            if direction.type == TokenType.NAME and \
                    direction.value in ("ascending", "descending"):
                self.lexer.next()
                descending = direction.value == "descending"
            specs.append(OrderSpec(key, descending))
            if self.lexer.peek().is_punct("COMMA"):
                self.lexer.next()
                continue
            return tuple(specs)

    def _parse_for_binding(self) -> ForClause:
        self.lexer.expect_punct("DOLLAR")
        name = self.lexer.expect_name().value
        self.lexer.expect_keyword("in")
        return ForClause(name, self._parse_or())

    def _parse_let_binding(self) -> LetClause:
        self.lexer.expect_punct("DOLLAR")
        name = self.lexer.expect_name().value
        self.lexer.expect_punct("ASSIGN")
        # A let body may itself be a nested FLWOR (XMark Q8/Q9 style).
        return LetClause(name, self.parse_expression())

    def _parse_or(self) -> Expression:
        left = self._parse_and()
        while self.lexer.peek().is_keyword("or"):
            self.lexer.next()
            left = Logical("or", left, self._parse_and())
        return left

    def _parse_and(self) -> Expression:
        left = self._parse_comparison()
        while self.lexer.peek().is_keyword("and"):
            self.lexer.next()
            left = Logical("and", left, self._parse_comparison())
        return left

    def _parse_comparison(self) -> Expression:
        left = self._parse_additive()
        token = self.lexer.peek()
        if token.type == TokenType.PUNCT and \
                token.value in _COMPARISON_OPS:
            self.lexer.next()
            right = self._parse_additive()
            return Comparison(_COMPARISON_OPS[token.value], left, right)
        return left

    def _parse_additive(self) -> Expression:
        left = self._parse_multiplicative()
        while True:
            token = self.lexer.peek()
            if token.is_punct("PLUS"):
                self.lexer.next()
                left = Arithmetic("+", left, self._parse_multiplicative())
            elif token.is_punct("MINUS"):
                self.lexer.next()
                left = Arithmetic("-", left, self._parse_multiplicative())
            else:
                return left

    def _parse_multiplicative(self) -> Expression:
        left = self._parse_unary()
        while True:
            token = self.lexer.peek()
            if token.is_punct("STAR"):
                self.lexer.next()
                left = Arithmetic("*", left, self._parse_unary())
            elif token.is_keyword("div") or token.is_keyword("mod"):
                self.lexer.next()
                left = Arithmetic(token.value, left, self._parse_unary())
            else:
                return left

    def _parse_unary(self) -> Expression:
        if self.lexer.peek().is_punct("MINUS"):
            self.lexer.next()
            operand = self._parse_path()
            return Arithmetic("-", NumberLiteral(0.0), operand)
        return self._parse_path()

    # -- paths ----------------------------------------------------------------

    def _parse_path(self) -> Expression:
        token = self.lexer.peek()
        if token.is_punct("SLASH") or token.is_punct("DSLASH"):
            return self._continue_path(None, None)
        if self._starts_relative_path(token):
            # Bare step(s) relative to the context item, as used inside
            # step predicates: ``[price > 100]``, ``[@id = "x"]``.
            steps = [self._parse_step("child")]
            while self.lexer.peek().is_punct("SLASH") or \
                    self.lexer.peek().is_punct("DSLASH"):
                axis = ("descendant"
                        if self.lexer.next().value == "DSLASH" else "child")
                steps.append(self._parse_step(axis))
            return PathExpr(ContextItem(), tuple(steps))
        start = self._parse_primary()
        if isinstance(start, _DocumentRoot):
            return self._continue_path(None, start.name)
        if self.lexer.peek().is_punct("SLASH") or \
                self.lexer.peek().is_punct("DSLASH"):
            return self._continue_path(start, None)
        return start

    def _continue_path(self, start: Expression | None,
                       document: str | None) -> PathExpr:
        steps: list[Step] = []
        while True:
            token = self.lexer.peek()
            if token.is_punct("SLASH"):
                axis = "child"
            elif token.is_punct("DSLASH"):
                axis = "descendant"
            else:
                break
            self.lexer.next()
            steps.append(self._parse_step(axis))
        if not steps:
            raise QuerySyntaxError("expected a path step",
                                   self.lexer.peek().position)
        return PathExpr(start, tuple(steps), document)

    def _parse_step(self, axis: str) -> Step:
        token = self.lexer.peek()
        if token.is_punct("AT"):
            self.lexer.next()
            name = self.lexer.expect_name().value
            return Step("attribute", name,
                        self._parse_step_predicates())
        if token.is_punct("STAR"):
            self.lexer.next()
            return Step(axis, "*", self._parse_step_predicates())
        name_token = self.lexer.expect_name()
        name = name_token.value
        if name == "text" and self.lexer.peek().is_punct("LPAREN"):
            self.lexer.next()
            self.lexer.expect_punct("RPAREN")
            return Step(axis, "text()", self._parse_step_predicates())
        return Step(axis, name, self._parse_step_predicates())

    def _parse_step_predicates(self) -> tuple[Expression, ...]:
        predicates: list[Expression] = []
        while self.lexer.peek().is_punct("LBRACKET"):
            self.lexer.next()
            predicates.append(self.parse_expression())
            self.lexer.expect_punct("RBRACKET")
        return tuple(predicates)

    # -- primaries ---------------------------------------------------------------

    def _parse_primary(self) -> Expression:
        token = self.lexer.peek()
        if token.is_punct("DOLLAR"):
            self.lexer.next()
            return VarRef(self.lexer.expect_name().value)
        if token.type == TokenType.STRING:
            self.lexer.next()
            return StringLiteral(token.value)
        if token.type == TokenType.NUMBER:
            self.lexer.next()
            return NumberLiteral(float(token.value))
        if token.is_keyword("document"):
            self.lexer.next()
            self.lexer.expect_punct("LPAREN")
            doc = self.lexer.next()
            if doc.type != TokenType.STRING:
                raise QuerySyntaxError("document() expects a string",
                                       doc.position)
            self.lexer.expect_punct("RPAREN")
            return _DocumentRoot(doc.value)
        if token.is_punct("LPAREN"):
            self.lexer.next()
            if self.lexer.peek().is_punct("RPAREN"):
                self.lexer.next()
                return SequenceExpr(())
            items = [self.parse_expression()]
            while self.lexer.peek().is_punct("COMMA"):
                self.lexer.next()
                items.append(self.parse_expression())
            self.lexer.expect_punct("RPAREN")
            if len(items) == 1:
                return items[0]
            return SequenceExpr(tuple(items))
        if token.is_punct("LT"):
            return self._parse_constructor()
        if token.type == TokenType.NAME and \
                self.lexer.peek(1).is_punct("LPAREN"):
            return self._parse_function_call()
        raise QuerySyntaxError(
            f"unexpected token {token.value!r}", token.position)

    def _parse_function_call(self) -> Expression:
        name_token = self.lexer.next()
        name = name_token.value
        if name not in KNOWN_FUNCTIONS:
            raise UnsupportedFeatureError(
                f"function {name}() is not in the supported subset")
        self.lexer.expect_punct("LPAREN")
        args: list[Expression] = []
        if not self.lexer.peek().is_punct("RPAREN"):
            args.append(self.parse_expression())
            while self.lexer.peek().is_punct("COMMA"):
                self.lexer.next()
                args.append(self.parse_expression())
        self.lexer.expect_punct("RPAREN")
        return FunctionCall(name, tuple(args))

    # -- direct constructors (raw scanning + {expr} re-entry) ------------------

    def _parse_constructor(self) -> ElementConstructor:
        end, constructor = self._scan_constructor(self.lexer.mark())
        self.lexer.reset(end)
        return constructor

    def _scan_constructor(self, pos: int
                          ) -> tuple[int, ElementConstructor]:
        """The constructor starting at raw position ``pos``, and the
        raw position just after it."""
        text = self.lexer.text
        if text[pos] != "<":
            raise QuerySyntaxError("expected '<'", pos)
        i = pos + 1
        i, name = _scan_name(text, i)
        attributes: list[tuple[str, tuple[Expression, ...]]] = []
        while True:
            i = _skip_ws(text, i)
            if i >= len(text):
                raise QuerySyntaxError("unterminated constructor", pos)
            if text.startswith("/>", i):
                return i + 2, ElementConstructor(name, tuple(attributes),
                                                 ())
            if text[i] == ">":
                i += 1
                break
            i, attr_name = _scan_name(text, i)
            i = _skip_ws(text, i)
            if i >= len(text) or text[i] != "=":
                raise QuerySyntaxError(
                    f"attribute {attr_name!r} missing '='", i)
            i = _skip_ws(text, i + 1)
            if i >= len(text) or text[i] not in "\"'":
                raise QuerySyntaxError(
                    f"attribute {attr_name!r} value must be quoted", i)
            i, parts = self._scan_value_parts(text, i + 1, text[i])
            attributes.append((attr_name, parts))
        content: list[Expression] = []
        while True:
            if i >= len(text):
                raise QuerySyntaxError(
                    f"constructor <{name}> never closed", pos)
            if text.startswith("</", i):
                i, end_name = _scan_name(text, i + 2)
                i = _skip_ws(text, i)
                if i >= len(text) or text[i] != ">":
                    raise QuerySyntaxError("malformed end tag", i)
                if end_name != name:
                    raise QuerySyntaxError(
                        f"end tag </{end_name}> does not match "
                        f"<{name}>", i)
                return i + 1, ElementConstructor(name, tuple(attributes),
                                                 tuple(content))
            if text[i] == "<":
                # Resume at the raw end: mark() would skip the
                # whitespace the next text starts with.
                i, nested = self._scan_constructor(i)
                content.append(nested)
                continue
            if text[i] == "{":
                self.lexer.reset(i + 1)
                content.append(self.parse_expression())
                # Resume just after the brace: mark() would skip the
                # whitespace the next text starts with.
                i = self.lexer.expect_punct("RBRACE").position + 1
                continue
            j = i
            while j < len(text) and text[j] not in "<{":
                j += 1
            raw = text[i:j]
            if raw.strip():
                content.append(TextLiteral(raw))
            i = j

    def _scan_value_parts(self, text: str, i: int, quote: str
                          ) -> tuple[int, tuple[Expression, ...]]:
        """Attribute value: literal text mixed with ``{expr}`` parts."""
        parts: list[Expression] = []
        buffer: list[str] = []
        while True:
            if i >= len(text):
                raise QuerySyntaxError("unterminated attribute value", i)
            ch = text[i]
            if ch == quote:
                if buffer:
                    parts.append(TextLiteral("".join(buffer)))
                return i + 1, tuple(parts)
            if ch == "{":
                if buffer:
                    parts.append(TextLiteral("".join(buffer)))
                    buffer = []
                self.lexer.reset(i + 1)
                parts.append(self.parse_expression())
                i = self.lexer.expect_punct("RBRACE").position + 1
                continue
            buffer.append(ch)
            i += 1


    def _starts_relative_path(self, token: Token) -> bool:
        """A bare NAME (not a function call), ``@name``, or ``text()``
        starts a context-relative path."""
        if token.is_punct("AT"):
            return True
        if token.type == TokenType.NAME:
            if self.lexer.peek(1).is_punct("LPAREN"):
                # ``text()`` is a step; other calls are functions.
                return token.value == "text"
            return True
        return False


class _DocumentRoot(Expression):
    """Internal marker: ``document("...")`` — path root follows."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


_CONSTRUCTOR_NAME_CHARS = set(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-.:")


def _scan_name(text: str, i: int) -> tuple[int, str]:
    start = i
    while i < len(text) and text[i] in _CONSTRUCTOR_NAME_CHARS:
        i += 1
    if i == start:
        raise QuerySyntaxError("expected a name", start)
    return i, text[start:i]


def _skip_ws(text: str, i: int) -> int:
    while i < len(text) and text[i] in " \t\r\n":
        i += 1
    return i


def parse_path_steps(path: str) -> list[tuple[str, str]]:
    """Parse a plain path string like ``/site//item/@id`` into
    (axis, name) pairs for :meth:`StructureSummary.resolve`."""
    steps: list[tuple[str, str]] = []
    i = 0
    n = len(path)
    while i < n:
        if path.startswith("//", i):
            axis = "descendant"
            i += 2
        elif path[i] == "/":
            axis = "child"
            i += 1
        else:
            raise QuerySyntaxError(f"expected '/' in path {path!r}", i)
        j = i
        while j < n and path[j] != "/":
            j += 1
        steps.append((axis, path[i:j]))
        i = j
    return steps
