"""Plan explanation: the operators a run executes.

``explain(prepared)`` renders a
:class:`~repro.query.engine.PreparedPlan` as indented text.  It walks
the query's skeleton — for/let, order by, return, constructors,
function calls, arithmetic, and/or and sequences — and prints, under
each for-clause, the operator tree that the clause's
:class:`~repro.query.optimizer.BoundClause` runs: one line per
operator, its inputs indented below it, then a ``Select per binding``
line for each conjunct left to per-binding checks.  A path
prints its bound ``Projection`` or summary access, else ``navigate``.
It plans, binds and classifies nothing itself: each caller passes the
plan it already holds, so a plan with error diagnostics renders too.
"""

from __future__ import annotations

from repro.query.ast import (
    Arithmetic,
    Comparison,
    ContextItem,
    ElementConstructor,
    Expression,
    FLWOR,
    FunctionCall,
    LetClause,
    Logical,
    NumberLiteral,
    PathExpr,
    SequenceExpr,
    StringLiteral,
    VarRef,
)
from repro.query.optimizer import BoundRows, Template
from repro.query.physical import (ColumnCompare, Concat, ContAccess,
                                  ContScan, ContSubstring, Decompress,
                                  FirstHit, MergeJoin, NodeSet, Operator,
                                  Parent, Sort, StructureSummaryAccess,
                                  ThetaJoin)


def explain(prepared) -> str:
    """Render a :class:`~repro.query.engine.PreparedPlan`'s bound
    operators as text."""
    lines: list[str] = []
    _explain(prepared.ast, lines, 0, prepared.plan.by_node(),
             prepared.bound)
    return "\n".join(lines)


def _emit(lines: list[str], depth: int, text: str) -> None:
    lines.append("  " * depth + text)


def _explain(expr: Expression, lines: list[str], depth: int,
             plans: dict, bound) -> None:
    if isinstance(expr, FLWOR):
        _explain_flwor(expr, lines, depth, plans, bound)
    elif isinstance(expr, PathExpr):
        _explain_path(expr, lines, depth, bound)
    elif isinstance(expr, ElementConstructor):
        _emit(lines, depth, f"construct <{expr.name}>")
        for part in [p for _, parts in expr.attributes for p in parts] \
                + list(expr.content):
            _explain(part, lines, depth + 1, plans, bound)
    elif isinstance(expr, FunctionCall):
        _emit(lines, depth, f"{expr.name}(...)")
        for arg in expr.args:
            if isinstance(arg, (FLWOR, PathExpr)):
                _explain(arg, lines, depth + 1, plans, bound)
    elif isinstance(expr, (Arithmetic, Logical)):
        _emit(lines, depth, f"{type(expr).__name__.lower()} {expr.op}")
        for operand in (expr.left, expr.right):
            _explain(operand, lines, depth + 1, plans, bound)
    elif isinstance(expr, SequenceExpr):
        _emit(lines, depth, "sequence")
        for item in expr.items:
            _explain(item, lines, depth + 1, plans, bound)
    elif isinstance(expr, Comparison):
        _emit(lines, depth, f"compare {expr.op}")


def _explain_flwor(expr: FLWOR, lines: list[str], depth: int,
                   plans: dict, bound) -> None:
    plan = plans[id(expr)]
    rows = bound.rows.get(id(expr))
    if rows is not None:
        _emit(lines, depth, _rows_label(rows))
    for step in plan.clauses:
        clause = step.clause
        if isinstance(clause, LetClause):
            _emit(lines, depth, f"let ${clause.var} :=")
            _explain(clause.source, lines, depth + 1, plans, bound)
            continue
        _emit(lines, depth, f"for ${clause.var} in")
        # What a run takes: the first strategy the data accepted.
        chosen = next(filter(None, bound.clauses[id(step)]), None)
        if chosen is None:
            _explain(clause.source, lines, depth + 1, plans, bound)
        else:
            _operator(chosen[1], lines, depth + 1)
        for conjunct in step.decidable if chosen is None \
                else step.rest(chosen[0]):
            _emit(lines, depth + 1,
                  f"Select per binding: {_expr_text(conjunct)}")
    for conjunct in plan.residual:
        _emit(lines, depth, f"Select per binding: {_expr_text(conjunct)}")
    for spec in expr.order:
        direction = "descending" if spec.descending else "ascending"
        _emit(lines, depth, f"order by ({direction})")
    _emit(lines, depth, "return")
    _explain(expr.result, lines, depth + 1, plans, bound)


def _explain_path(expr: PathExpr, lines: list[str], depth: int,
                  bound) -> None:
    """A relative path's bound projection, else ``navigate``; an
    absolute one's bound summary prefix, under ``navigate`` where steps
    or predicates are left to evaluate per node."""
    if expr.start is not None:
        projection = bound.projections.get(id(expr))
        _emit(lines, depth, f"navigate {_expr_text(expr)}"
              if projection is None else _projection_label(projection))
        return
    access = bound.paths.get(id(expr))
    if access is None or len(access.steps) < len(expr.steps) or \
            expr.steps[-1].predicates:
        _emit(lines, depth, f"navigate {_expr_text(expr)}")
        depth += 1
    if access is not None:
        _operator(access, lines, depth)


def _operator(operator: Operator, lines: list[str], depth: int) -> None:
    """One operator's label, its input operators indented below."""
    _emit(lines, depth, _LABELS[type(operator)](operator))
    for child in operator.inputs():
        _operator(child, lines, depth + 1)


def _paths(paths) -> str:
    """Summary or container paths: the first, and how many more."""
    if not paths:
        return "(no path)"
    return paths[0] + (f" (+{len(paths) - 1})" if len(paths) > 1 else "")


def _interval(low, high, low_inclusive: bool, high_inclusive: bool
              ) -> str:
    return (f"{'[' if low_inclusive else '('}{low!r}, {high!r}"
            f"{']' if high_inclusive else ')'}")


_LABELS = {
    ContScan: lambda op: f"ContScan {op.container.path}",
    ContAccess: lambda op: (f"ContAccess interval "
                            f"{_interval(*op.interval)} on "
                            f"{op.container.path}"),
    ContSubstring: lambda op: (
        f"ContSubstring {op.needle!r} on {op.container.path} "
        f"({'exact' if op.exact else 'candidates'})"),
    FirstHit: lambda op: f"FirstHit {op.column} (first value a hit)",
    StructureSummaryAccess: lambda op: "StructureSummaryAccess " + "".join(
        ("//" if axis == "descendant" else "/") + test
        for axis, test in op.steps),
    Parent: lambda op: f"Parent {op.input_column} → {op.output_column}",
    NodeSet: lambda op: (f"NodeSet {op.mode} {op.column}"
                         if len(op.inputs()) > 1 else
                         f"NodeSet distinct {op.column}"),
    Concat: lambda op: "Concat",
    MergeJoin: lambda op: f"MergeJoin {op.left_column} = {op.right_column}",
    ThetaJoin: lambda op: (
        f"ThetaJoin {'' if op.scale == 1 else f'{op.scale:g} * '}key "
        f"{op.op} probe on "
        f"{_paths([c.path for c in op.containers])} + Parent^{op.ascend}"
        f" → {op.output_column}"),
    ColumnCompare: lambda op: (
        f"ColumnCompare {_paths([c.path for c in op.left])} {op.op} "
        f"{op.scale:g} * {_paths([c.path for c in op.right])} → "
        f"{op.column}"),
    Sort: lambda op: f"Sort {', '.join(op.columns)}",
    Decompress: lambda op: f"Decompress {', '.join(op.columns)}",
}


#: how a row plan's clause binds its column against the rows before.
_CLAUSE_SIGNS = {"join": "⋈", "theta": "θ"}


def _rows_label(rows: BoundRows) -> str:
    """A row FLWOR: its columns — each clause's variable, a join's
    ``⋈``, a theta join's ``θ``, a cross product's ``×``, a nested row
    plan's after its own — and what a row returns."""
    columns: list[str] = []
    _row_columns(rows, columns)
    return f"Rows {' '.join(columns)} → {_returned(rows)}"


def _row_columns(rows: BoundRows, columns: list[str]) -> None:
    for clause in rows.clauses:
        sign = _CLAUSE_SIGNS.get(clause.kind, "×" if columns else "")
        columns.append(f"{sign} ${clause.step.clause.var}".lstrip())
    for _, _, source in rows.lets:
        if isinstance(source, BoundRows):
            _row_columns(source, columns)


def _returned(rows: BoundRows) -> str:
    """``write`` and the template, ``{…}`` per slot, else the slot."""
    result = rows.result
    if not isinstance(result, Template):
        return _slot_text(result)
    return "write " + _template_text(result, rows)


def _slot_text(expr: tuple) -> str:
    kind = expr[0]
    if kind == "node":
        return f"${expr[1]}"
    if kind == "path":
        return _expr_text(expr[2].plan.path)
    return repr(expr[1]) if kind == "literal" else kind  # a count


def _template_text(template: Template, rows: BoundRows) -> str:
    parts = [part if isinstance(part, str) else "{…}"
             for part in template.head]
    parts.append(">" if template.content else "/>")
    for part in template.content:
        if isinstance(part, str):
            parts.append(part)
        elif isinstance(part, Template):
            parts.append(_template_text(part, rows))
        elif part[0] == "let":  # a nested plan's items, any number
            source = next(s for key, _, s in rows.lets if key == part[1])
            parts.append("{" + _returned(source).removeprefix("write ")
                         + "…}")
        else:
            parts.append("{" + _slot_text(part) + "}")
    if template.content:
        parts.append(template.close)
    return "".join(parts)


def _projection_label(projection) -> str:
    """A bound projection: per stage the summary paths it reads, with
    the ``k`` of a positional step."""
    stages = [_paths(reads) + ("" if k is None else f" #{k}")
              for reads, (_, k) in zip(projection.reads,
                                       projection.plan.stages)]
    return (f"Projection {_expr_text(projection.plan.path)} ← "
            f"{' → '.join(stages)}")


def _expr_text(expr: Expression) -> str:
    """A conjunct or path as query text; step predicates other than a
    position print as ``[…]``."""
    if isinstance(expr, PathExpr):
        return ("" if expr.start is None else _expr_text(expr.start)) + \
            "".join(("/@" if step.axis == "attribute" else
                     "//" if step.axis == "descendant" else "/")
                    + step.test + "".join(
                        f"[{p.value:g}]" if isinstance(p, NumberLiteral)
                        else "[…]" for p in step.predicates)
                    for step in expr.steps)
    if isinstance(expr, (Comparison, Logical, Arithmetic)):
        return " ".join((_operand_text(expr.left), expr.op,
                         _operand_text(expr.right)))
    if isinstance(expr, FunctionCall):
        return f"{expr.name}({', '.join(map(_expr_text, expr.args))})"
    if isinstance(expr, VarRef):
        return f"${expr.name}"
    if isinstance(expr, StringLiteral):
        return f'"{expr.value}"'
    if isinstance(expr, NumberLiteral):
        return f"{expr.value:g}"
    return "." if isinstance(expr, ContextItem) else "…"


def _operand_text(expr: Expression) -> str:
    text = _expr_text(expr)
    return f"({text})" if isinstance(
        expr, (Comparison, Logical, Arithmetic)) else text
