"""A stand-in for the optimized Galax XQuery engine [10].

The paper's Figure 7 compares XQueC's query times against Galax over
*uncompressed* documents.  This engine reproduces Galax's relevant
behaviour for that comparison:

* it evaluates the same query subset, over a plain in-memory DOM;
* evaluation is semantically equivalent to our engine but strategically
  *naive* — absolute paths walk the tree from the root, ``for`` sources
  are re-evaluated per binding, and joins are nested loops (no hash
  indexes, no caching).

That is exactly the profile the paper reports: competitive on simple
lookups, quadratic blow-up on the join queries Q8/Q9 (126 s /
unmeasurable vs XQueC's ~2 s).
"""

from __future__ import annotations

from repro.errors import QueryError, QueryTypeError
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
    PathExpr,
    SequenceExpr,
    Step,
    StringLiteral,
    TextLiteral,
    VarRef,
)
from repro.query.parser import parse_query
from repro.xmlio.dom import Document, Element, Text, parse
from repro.xmlio.writer import serialize


class GalaxEngine:
    """Naive DOM XQuery evaluator with the paper-relevant profile."""

    def __init__(self, xml_text: str,
                 collection: dict[str, str] | None = None):
        self.document: Document = parse(xml_text)
        self.collection: dict[str, Document] = {
            name: parse(text)
            for name, text in (collection or {}).items()}

    def execute(self, query: str | Expression) -> list:
        """Evaluate; returns a list of str/float/bool/Element items."""
        ast = parse_query(query) if isinstance(query, str) else query
        return _eval(ast, {}, self)

    def execute_to_xml(self, query: str | Expression) -> str:
        """Evaluate and serialize the result sequence."""
        parts = []
        for item in self.execute(query):
            if isinstance(item, Element):
                parts.append(serialize(item))
            elif isinstance(item, float):
                parts.append(_format_number(item))
            else:
                parts.append(str(item))
        return "\n".join(parts)


def _eval(expr: Expression, env: dict, document) -> list:
    if isinstance(expr, StringLiteral):
        return [expr.value]
    if isinstance(expr, NumberLiteral):
        return [expr.value]
    if isinstance(expr, TextLiteral):
        return [expr.value]
    if isinstance(expr, VarRef):
        try:
            return env[expr.name]
        except KeyError:
            raise QueryError(f"unbound variable ${expr.name}") from None
    if isinstance(expr, ContextItem):
        return [env["."]]
    if isinstance(expr, SequenceExpr):
        out: list = []
        for item in expr.items:
            out.extend(_eval(item, env, document))
        return out
    if isinstance(expr, Logical):
        left = _boolean(_eval(expr.left, env, document))
        if expr.op == "and":
            return [left and _boolean(_eval(expr.right, env, document))]
        return [left or _boolean(_eval(expr.right, env, document))]
    if isinstance(expr, Comparison):
        return [_compare(expr, env, document)]
    if isinstance(expr, Arithmetic):
        return _arithmetic(expr, env, document)
    if isinstance(expr, FunctionCall):
        return _function(expr, env, document)
    if isinstance(expr, FLWOR):
        if not expr.order:
            results: list = []
            _flwor(expr, 0, env, document,
                   lambda bound_env: results.extend(
                       _eval(expr.result, bound_env, document)))
            return results
        keyed: list[tuple[tuple, list]] = []

        def ordered_sink(bound_env: dict) -> None:
            keys = tuple(_order_key(spec.key, bound_env, document)
                         for spec in expr.order)
            keyed.append((keys,
                          _eval(expr.result, bound_env, document)))

        _flwor(expr, 0, env, document, ordered_sink)
        for position in range(len(expr.order) - 1, -1, -1):
            keyed.sort(key=lambda pair, p=position: pair[0][p],
                       reverse=expr.order[position].descending)
        ordered: list = []
        for _, items in keyed:
            ordered.extend(items)
        return ordered
    if isinstance(expr, PathExpr):
        return _path(expr, env, document)
    if isinstance(expr, ElementConstructor):
        return [_construct(expr, env, document)]
    raise QueryError(f"cannot evaluate {type(expr).__name__}")


def _flwor(expr: FLWOR, index: int, env: dict, document,
           sink) -> None:
    # Deliberately naive: where is checked only once every clause is
    # bound, and every source is re-evaluated per enclosing binding.
    if index == len(expr.clauses):
        if expr.where is not None and \
                not _boolean(_eval(expr.where, env, document)):
            return
        sink(env)
        return
    clause = expr.clauses[index]
    if isinstance(clause, LetClause):
        child_env = dict(env)
        child_env[clause.var] = _eval(clause.source, env, document)
        _flwor(expr, index + 1, child_env, document, sink)
        return
    assert isinstance(clause, ForClause)
    for item in _eval(clause.source, env, document):
        child_env = dict(env)
        child_env[clause.var] = [item]
        _flwor(expr, index + 1, child_env, document, sink)


def _order_key(key_expr: Expression, env: dict,
               document) -> tuple:
    """Sort key with the same total order as the XQueC engine."""
    sequence = _eval(key_expr, env, document)
    if not sequence:
        return (-1, 0.0, "")
    atom = _atomize(sequence[0])
    try:
        return (0, _number(atom), "")
    except (ValueError, TypeError, QueryError):
        return (1, 0.0, _string(atom))


def _path(expr: PathExpr, env: dict, document) -> list:
    if expr.start is None:
        target = document.document
        if expr.document is not None:
            target = document.collection.get(expr.document, target)
        root = target.root
        context: list = [root]
        steps = list(expr.steps)
        if steps and steps[0].axis == "child":
            first = steps.pop(0)
            if first.test not in ("*", root.name):
                context = []
            context = _filter_predicates(context, first, env, document)
        elif steps and steps[0].axis == "descendant":
            first = steps.pop(0)
            name = None if first.test == "*" else first.test
            context = []
            if first.test in ("*", root.name):
                context.append(root)
            context.extend(root.descendants(name))
            context = _filter_predicates(context, first, env, document)
    else:
        context = _eval(expr.start, env, document)
        steps = list(expr.steps)
    for step in steps:
        context = _apply_step(context, step, env, document)
    return context


def _apply_step(context: list, step: Step, env: dict,
                document) -> list:
    """Each context node's ``step``, filtered by the step's predicates
    on its own, one after the other."""
    output: list = []
    for item in context:
        if not isinstance(item, Element):
            continue
        if step.axis == "attribute":
            value = item.attribute(step.test)
            found = [] if value is None else [value]
        elif step.test == "text()":
            found = [text.value for text in (
                item.descendant_texts() if step.axis == "descendant"
                else item.child_texts())]
        elif step.axis == "child":
            found = item.child_elements(
                None if step.test == "*" else step.test)
        else:
            found = list(item.descendants(
                None if step.test == "*" else step.test))
        output.extend(_filter_predicates(found, step, env, document))
    return output


def _filter_predicates(items: list, step: Step, env: dict,
                       document) -> list:
    """``[k]`` is ``position() = k``, counted per parent element: the
    context node of a child step, and of ``child::a[k]`` in the
    ``descendant-or-self::node()/child::a[k]`` that ``//a[k]``
    abbreviates; per context node for text and attribute values."""
    for predicate in step.predicates:
        if isinstance(predicate, NumberLiteral):
            counts: dict = {}
            kept = []
            for item in items:
                key = id(getattr(item, "parent", None))
                counts[key] = counts.get(key, 0) + 1
                if counts[key] == predicate.value:
                    kept.append(item)
            items = kept
            continue
        kept = []
        for item in items:
            child_env = dict(env)
            child_env["."] = item
            if _boolean(_eval(predicate, child_env, document)):
                kept.append(item)
        items = kept
    return items


def _construct(expr: ElementConstructor, env: dict,
               document) -> Element:
    element = Element(expr.name)
    for name, parts in expr.attributes:
        rendered = []
        for part in parts:
            if isinstance(part, TextLiteral):
                rendered.append(part.value)
            else:
                rendered.append(" ".join(
                    _string(i) for i in _eval(part, env, document)))
        element.set_attribute(name, "".join(rendered))
    for content in expr.content:
        if isinstance(content, TextLiteral):
            element.append(Text(content.value))
            continue
        for item in _eval(content, env, document):
            if isinstance(item, Element):
                element.append(_clone(item))
            else:
                element.append(Text(_string(item)))
    return element


def _clone(element: Element) -> Element:
    copy = Element(element.name)
    for attr in element.attributes:
        copy.set_attribute(attr.name, attr.value)
    for child in element.children:
        if isinstance(child, Element):
            copy.append(_clone(child))
        elif isinstance(child, Text):
            copy.append(Text(child.value))
    return copy


def _compare(expr: Comparison, env: dict, document) -> bool:
    left = [_atomize(i) for i in _eval(expr.left, env, document)]
    right = [_atomize(i) for i in _eval(expr.right, env, document)]
    for lv in left:
        for rv in right:
            if _compare_values(expr.op, lv, rv):
                return True
    return False


def _compare_values(op: str, lv, rv) -> bool:
    if isinstance(lv, float) or isinstance(rv, float):
        try:
            lv = float(lv)
            rv = float(rv)
        except (TypeError, ValueError):
            return op == "!="
    if op == "=":
        return lv == rv
    if op == "!=":
        return lv != rv
    if op == "<":
        return lv < rv
    if op == "<=":
        return lv <= rv
    if op == ">":
        return lv > rv
    return lv >= rv


def _arithmetic(expr: Arithmetic, env: dict, document) -> list:
    left = _eval(expr.left, env, document)
    right = _eval(expr.right, env, document)
    if not left or not right:
        return []
    a = _number(_atomize(left[0]))
    b = _number(_atomize(right[0]))
    if expr.op == "+":
        return [a + b]
    if expr.op == "-":
        return [a - b]
    if expr.op == "*":
        return [a * b]
    if b == 0.0:
        raise QueryTypeError(f"division by zero in {expr.op}")
    return [a / b if expr.op == "div" else a % b]


def _function(expr: FunctionCall, env: dict, document) -> list:
    args = [[_atomize(i) for i in _eval(arg, env, document)]
            for arg in expr.args]
    name = expr.name
    if name == "count":
        return [float(len(args[0]))]
    if name == "empty":
        return [not args[0]]
    if name == "not":
        return [not _boolean(args[0])]
    if name == "contains":
        hay = _string(args[0][0]) if args[0] else ""
        needle = _string(args[1][0]) if args[1] else ""
        return [needle in hay]
    if name == "starts-with":
        hay = _string(args[0][0]) if args[0] else ""
        prefix = _string(args[1][0]) if args[1] else ""
        return [hay.startswith(prefix)]
    if name == "word-contains":
        from repro.query.functions import tokenize
        needle = _string(args[1][0]) if args[1] else ""
        wanted = tokenize(needle)
        if not wanted:
            return [False]
        for item in args[0]:
            words = set(tokenize(_string(item)))
            if all(w in words for w in wanted):
                return [True]
        return [False]
    if name == "sum":
        return [sum(_number(i) for i in args[0])]
    if name == "avg":
        if not args[0]:
            return []
        values = [_number(i) for i in args[0]]
        return [sum(values) / len(values)]
    if name == "min":
        return [min(_number(i) for i in args[0])] if args[0] else []
    if name == "max":
        return [max(_number(i) for i in args[0])] if args[0] else []
    if name == "number":
        return [_number(args[0][0])] if args[0] else []
    if name == "string":
        return [_string(args[0][0]) if args[0] else ""]
    if name == "string-length":
        return [float(len(_string(args[0][0])))] if args[0] else [0.0]
    if name == "zero-or-one":
        return list(args[0][:1])
    if name == "data":
        return list(args[0])
    if name == "distinct-values":
        seen: set = set()
        out = []
        for item in args[0]:
            if item not in seen:
                seen.add(item)
                out.append(item)
        return out
    raise QueryError(f"unknown function {name}()")


def _atomize(item):
    if isinstance(item, Element):
        return item.text()
    return item


def _boolean(sequence: list) -> bool:
    if not sequence:
        return False
    first = sequence[0]
    if isinstance(first, Element):
        return True
    if isinstance(first, bool):
        return first
    if isinstance(first, float):
        return first != 0.0
    if isinstance(first, str):
        return bool(first)
    return True


def _string(item) -> str:
    if isinstance(item, Element):
        return item.text()
    if isinstance(item, bool):
        return "true" if item else "false"
    if isinstance(item, float):
        return _format_number(item)
    return str(item)


def _number(item) -> float:
    try:
        if isinstance(item, Element):
            return float(item.text())
        if isinstance(item, bool):
            return 1.0 if item else 0.0
        return float(item)
    except ValueError as exc:
        raise QueryTypeError(f"cannot convert to a number: {exc}") \
            from exc


def _format_number(value: float) -> str:
    if value != value:
        return "NaN"
    if value == float("inf"):
        return "INF"
    if value == float("-inf"):
        return "-INF"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)
