"""Plan explanation: the strategies the engine will apply.

``explain(query)`` renders the query's
:class:`~repro.query.optimizer.QueryPlan` — the plan the engine
executes and the Tier-A verifier checks — as indented text: summary-
resolvable sources, the strategy each for-clause's conjuncts select
(merge join, theta join, container selection or a per-binding
``Select``), order-by.  It classifies nothing itself.
"""

from __future__ import annotations

from repro.query.ast import (
    Comparison,
    ElementConstructor,
    Expression,
    FLWOR,
    FunctionCall,
    LetClause,
    PathExpr,
    VarRef,
)
from repro.query.optimizer import (
    JoinPlan,
    SelectionPlan,
    SelectionTerm,
    ThetaPlan,
    is_absolute_simple_path,
    plan_query,
)
from repro.query.parser import parse_query


def explain(query: str | Expression) -> str:
    """Render the evaluation strategy of a query as text."""
    ast = parse_query(query) if isinstance(query, str) else query
    lines: list[str] = []
    _explain(ast, lines, 0, plan_query(ast).by_node())
    return "\n".join(lines)


def _emit(lines: list[str], depth: int, text: str) -> None:
    lines.append("  " * depth + text)


def _explain(expr: Expression, lines: list[str], depth: int,
             plans: dict) -> None:
    if isinstance(expr, FLWOR):
        _explain_flwor(expr, lines, depth, plans)
    elif is_absolute_simple_path(expr):
        _emit(lines, depth, f"StructureSummaryAccess {_path_text(expr)}")
    elif isinstance(expr, PathExpr):
        _emit(lines, depth, f"navigate {_path_text(expr)}" + (
            "" if expr.start is not None else
            " (predicates force per-step evaluation)"))
    elif isinstance(expr, ElementConstructor):
        _emit(lines, depth, f"construct <{expr.name}> "
                            "(Decompress + XMLSerialize)")
        for content in expr.content:
            _explain(content, lines, depth + 1, plans)
    elif isinstance(expr, FunctionCall):
        _emit(lines, depth, f"{expr.name}(...)")
        for arg in expr.args:
            if isinstance(arg, (FLWOR, PathExpr)):
                _explain(arg, lines, depth + 1, plans)
    elif isinstance(expr, Comparison):
        _emit(lines, depth, f"compare {expr.op}")


def _explain_flwor(expr: FLWOR, lines: list[str], depth: int,
                   plans: dict) -> None:
    for step in plans[id(expr)].clauses:
        clause = step.clause
        if isinstance(clause, LetClause):
            _emit(lines, depth, f"let ${clause.var} :=")
            _explain(clause.source, lines, depth + 1, plans)
            continue
        _emit(lines, depth, f"for ${clause.var} in")
        chosen = step.strategy
        selected = isinstance(chosen, SelectionPlan)
        # What each conjunct chose: a selection's terms (step
        # predicates first), else the one join.
        parts = chosen.terms if selected else \
            () if chosen is None else (chosen,)
        chosen_for = {id(part.conjunct): part for part in parts}
        _explain(chosen.source if selected else clause.source, lines,
                 depth + 1, plans)
        for predicate in clause.source.steps[-1].predicates \
                if selected else ():
            _emit(lines, depth + 1, _term_text(
                chosen_for[id(predicate)], clause.var,
                "per-step evaluation"))
        for conjunct in step.decidable:
            _emit(lines, depth + 1, _conjunct_text(
                chosen_for.get(id(conjunct)), clause.var))
        if selected:
            _emit(lines, depth + 1,
                  "NodeSet (terms intersected, not-exists subtracted: "
                  "each node once, in document order)")
    for spec in expr.order:
        direction = "descending" if spec.descending else "ascending"
        _emit(lines, depth, f"order by ({direction})")
    _emit(lines, depth, "return")
    _explain(expr.result, lines, depth + 1, plans)


def _conjunct_text(chosen, var: str) -> str:
    """One decidable conjunct: the strategy it selected for its
    clause, else the per-binding check."""
    if isinstance(chosen, JoinPlan) and chosen.probe_source is not None:
        (probe,) = chosen.probe_vars
        build = _path_text(PathExpr(VarRef(var), chosen.build_steps))
        key = _path_text(PathExpr(VarRef(probe), chosen.probe_steps))
        return (f"MergeJoin {build} = {key}, ${probe} over "
                f"{_path_text(chosen.probe_source)} (ContScan + Parent "
                "per value-sorted key container, keys decoded, once per "
                f"execution; matches looked up per ${probe}; Select per "
                "binding where a key container is not string-typed "
                "records)")
    if isinstance(chosen, ThetaPlan):
        key = _path_text(PathExpr(VarRef(var), chosen.leaf_steps))
        if chosen.scale is not None:
            key = f"{chosen.scale:g} * {key}"
        return (f"ThetaJoin {key} {chosen.op} probe on bound vars "
                f"{list(chosen.probe_vars)} (sorted container, one "
                f"binary search per binding + Parent^{chosen.ascend}; "
                "nested loop where its order is not the numeric "
                "comparison)")
    if isinstance(chosen, SelectionTerm):
        return _term_text(chosen, var, "Select per binding")
    return ("Select (evaluated per binding, compressed comparison "
            "when codecs allow)")


def _term_text(term, var: str, fallback: str) -> str:
    """One selection term: its access path and when it is exact."""
    hops = term.range
    leaf = _path_text(PathExpr(VarRef(var), hops.leaf_steps))
    if term.kind == "substring":
        return (f"ContSubstring {term.needle!r} on {leaf} + Parent^n "
                "(q-gram candidates, n per container from the summary; "
                f"a superset, so re-checked per binding; {fallback} "
                "where a container cannot index the needle)")
    if term.kind == "interval":
        access = (f"ContAccess interval "
                  f"{'[' if hops.low_inclusive else '('}{hops.low!r}, "
                  f"{hops.high!r}{']' if hops.high_inclusive else ')'} "
                  f"on {leaf}")
        order = "numeric" if hops.constant_kind == "number" else "string"
        note = (f"exact where the containers are {order}-ordered "
                f"records, else {fallback}")
    else:
        access = f"ContScan {term.kind} {leaf}"
        note = f"exact on record containers, else {fallback}"
    return f"{access} + Parent^{hops.ascend} ({note})"


def _path_text(expr: PathExpr) -> str:
    parts: list[str] = []
    if expr.start is not None:
        parts.append("$ctx" if not hasattr(expr.start, "name")
                     else f"${expr.start.name}")
    for step in expr.steps:
        separator = "//" if step.axis == "descendant" else "/"
        if step.axis == "attribute":
            parts.append(f"/@{step.test}")
        else:
            parts.append(f"{separator}{step.test}")
    return "".join(parts)
