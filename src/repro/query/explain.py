"""Plan explanation: which strategies the engine will apply.

``explain(query)`` performs the same static analysis the evaluator
does — summary-resolvable sources, SelectionPlan / FullTextPlan access
paths, hash- and theta-joinable conjuncts, order-by — and renders it as an
indented plan sketch.  Useful for understanding why a query is (or is
not) evaluated in the compressed domain.
"""

from __future__ import annotations

from repro.query.ast import (
    Comparison,
    ElementConstructor,
    Expression,
    FLWOR,
    ForClause,
    FunctionCall,
    LetClause,
    PathExpr,
    VarRef,
)
from repro.query.optimizer import (
    find_fulltext_plan,
    find_join_plan,
    find_selection_plan,
    find_theta_plan,
    flatten_conjuncts,
    free_vars,
    is_absolute_simple_path,
)
from repro.query.parser import parse_query


def explain(query: str | Expression) -> str:
    """Render the evaluation strategy of a query as text."""
    ast = parse_query(query) if isinstance(query, str) else query
    lines: list[str] = []
    _explain(ast, lines, 0, set())
    return "\n".join(lines)


def _emit(lines: list[str], depth: int, text: str) -> None:
    lines.append("  " * depth + text)


def _explain(expr: Expression, lines: list[str], depth: int,
             bound: set[str]) -> None:
    if isinstance(expr, FLWOR):
        _explain_flwor(expr, lines, depth, bound)
    elif isinstance(expr, PathExpr):
        if expr.start is None:
            if is_absolute_simple_path(expr):
                _emit(lines, depth,
                      f"StructureSummaryAccess {_path_text(expr)}")
            else:
                _emit(lines, depth,
                      f"navigate {_path_text(expr)} (predicates "
                      "force per-step evaluation)")
        else:
            _emit(lines, depth, f"navigate {_path_text(expr)}")
    elif isinstance(expr, ElementConstructor):
        _emit(lines, depth, f"construct <{expr.name}> "
                            "(Decompress + XMLSerialize)")
        for content in expr.content:
            _explain(content, lines, depth + 1, bound)
    elif isinstance(expr, FunctionCall):
        _emit(lines, depth, f"{expr.name}(...)")
        for arg in expr.args:
            if isinstance(arg, (FLWOR, PathExpr)):
                _explain(arg, lines, depth + 1, bound)
    elif isinstance(expr, Comparison):
        _emit(lines, depth, f"compare {expr.op}")


def _explain_flwor(expr: FLWOR, lines: list[str], depth: int,
                   bound: set[str]) -> None:
    conjuncts = flatten_conjuncts(expr.where)
    inner_bound = set(bound)
    for clause in expr.clauses:
        if isinstance(clause, LetClause):
            _emit(lines, depth, f"let ${clause.var} :=")
            _explain(clause.source, lines, depth + 1, inner_bound)
            inner_bound.add(clause.var)
            continue
        assert isinstance(clause, ForClause)
        _emit(lines, depth, f"for ${clause.var} in")
        decidable = [c for c in conjuncts
                     if free_vars(c) <= inner_bound | {clause.var}]
        joined = any(find_join_plan(c, clause.var, inner_bound)
                     for c in decidable)
        # One theta join per clause, unless a hash join claims it or
        # the source depends on a binding; the constant selections run
        # on the containers when neither join does.
        theta_open = not joined and \
            is_absolute_simple_path(clause.source) and any(
                find_theta_plan(c, clause.var, inner_bound)
                for c in decidable)
        selection = None if joined or theta_open else \
            find_selection_plan(clause, decidable)
        terms = {}
        if selection is None:
            _explain(clause.source, lines, depth + 1, inner_bound)
        else:
            _explain(selection.source, lines, depth + 1, inner_bound)
            terms = {id(term.conjunct): term for term in selection.terms}
            for predicate in clause.source.steps[-1].predicates:
                _emit(lines, depth + 1, _term_text(
                    terms[id(predicate)], clause.var,
                    "per-step evaluation"))
        for conjunct in decidable:
            join = find_join_plan(conjunct, clause.var, inner_bound)
            if join is not None:
                _emit(lines, depth + 1,
                      "HashJoin (build side cacheable, probe on "
                      f"bound vars {sorted(free_vars(join.probe_expr))})")
                continue
            theta = find_theta_plan(conjunct, clause.var, inner_bound) \
                if theta_open else None
            if theta is not None:
                theta_open = False
                key = _path_text(PathExpr(VarRef(clause.var),
                                          theta.leaf_steps))
                if theta.scale is not None:
                    key = f"{theta.scale:g} * {key}"
                _emit(lines, depth + 1,
                      f"ThetaJoin {key} {theta.op} probe on bound vars "
                      f"{sorted(free_vars(theta.probe_expr))} (sorted "
                      "container, one binary search per binding + "
                      f"Parent^{theta.ascend}; nested loop where its "
                      "order is not the numeric comparison)")
                continue
            if id(conjunct) in terms:
                _emit(lines, depth + 1, _term_text(
                    terms[id(conjunct)], clause.var,
                    "Select per binding"))
                continue
            ft_plan = find_fulltext_plan(conjunct, clause.var)
            if ft_plan is not None:
                _emit(lines, depth + 1,
                      "FullTextIndex lookup "
                      f"{list(ft_plan.words)} + Parent^"
                      f"{ft_plan.ascend}")
                continue
            _emit(lines, depth + 1,
                  "Select (evaluated per binding, compressed "
                  "comparison when codecs allow)")
        if selection is not None:
            _emit(lines, depth + 1,
                  "NodeSet (terms intersected, not-exists subtracted: "
                  "each node once, in document order)")
        conjuncts = [c for c in conjuncts if c not in decidable]
        inner_bound.add(clause.var)
    for spec in expr.order:
        direction = "descending" if spec.descending else "ascending"
        _emit(lines, depth, f"order by ({direction})")
    _emit(lines, depth, "return")
    _explain(expr.result, lines, depth + 1, inner_bound)


def _term_text(term, var: str, fallback: str) -> str:
    """One selection term: its access path and when it is exact."""
    hops = term.range
    leaf = _path_text(PathExpr(VarRef(var), hops.leaf_steps))
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
