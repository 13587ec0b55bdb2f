"""Plan explanation: the strategies the engine will apply.

``explain(prepared)`` renders a
:class:`~repro.query.engine.PreparedPlan` — the plan the engine
executes and the Tier-A verifier checked — as indented text: summary-
resolvable sources, the strategy each for-clause's conjuncts select
(merge join, theta join, container selection or a per-binding
``Select``), order-by.  It neither plans nor classifies anything
itself: each caller passes the plan it already holds, so a plan with
error diagnostics renders too.
"""

from __future__ import annotations

from repro.query.ast import (
    Comparison,
    ElementConstructor,
    Expression,
    FLWOR,
    FunctionCall,
    LetClause,
    NumberLiteral,
    PathExpr,
    VarRef,
)
from repro.query.optimizer import (
    JoinPlan,
    ProjectionPlan,
    SelectionPlan,
    SelectionTerm,
    ThetaPlan,
    is_absolute_simple_path,
    is_element_step,
    parent_hops,
)


def explain(prepared) -> str:
    """Render a :class:`~repro.query.engine.PreparedPlan`'s
    evaluation strategy as text."""
    lines: list[str] = []
    _explain(prepared.ast, lines, 0, prepared.plan.by_node())
    return "\n".join(lines)


def _emit(lines: list[str], depth: int, text: str) -> None:
    lines.append("  " * depth + text)


def _explain(expr: Expression, lines: list[str], depth: int,
             plans: dict) -> None:
    if isinstance(expr, FLWOR):
        _explain_flwor(expr, lines, depth, plans)
    elif is_absolute_simple_path(expr):
        _emit(lines, depth, f"StructureSummaryAccess {_path_text(expr)}")
    elif isinstance(plans.get(id(expr)), ProjectionPlan):
        _emit(lines, depth, _projection_text(plans[id(expr)]))
    elif isinstance(expr, PathExpr):
        _emit(lines, depth, f"navigate {_path_text(expr)}" + (
            "" if expr.start is not None else
            " (predicates force per-step evaluation)"))
    elif isinstance(expr, ElementConstructor):
        _emit(lines, depth, f"construct <{expr.name}> "
                            "(Decompress + XMLSerialize)")
        for part in [p for _, parts in expr.attributes for p in parts] \
                + list(expr.content):
            _explain(part, lines, depth + 1, plans)
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


def _projection_text(plan: ProjectionPlan) -> str:
    """A relative path read as columns of its owners: per stage, the
    extents or containers it reaches and the hops up to the owner."""
    stages, above = [], plan.source
    for steps, k in plan.stages:
        above = PathExpr(None, above.steps + steps, above.document)
        access = "StructureSummaryAccess" if is_element_step(steps[-1]) \
            else "ContScan"
        stages.append(f"{access} {_leaf_text(above)} + Parent^"
                      f"{_hops_text(steps)}"
                      + ("" if k is None else f", #{k} per parent"))
    note = "extents grouped by owner once per summary node" \
        if is_element_step(plan.steps[-1]) else \
        "records grouped by owner once per container, looked up per " \
        "binding; navigated where a container is a blob or has mixed " \
        "content"
    return (f"Projection {_path_text(plan.path)} ← "
            f"{' → '.join(stages)} ({note})")


def _hops_text(steps) -> str:
    """``Parent`` hops from what ``steps`` reach back up: ``n`` (read
    per summary node) past a ``//``."""
    return "n" if any(step.axis == "descendant" for step in steps) \
        else str(parent_hops(steps))


def _leaf_text(path: PathExpr) -> str:
    """An absolute path as the summary names its extent or container."""
    return "".join(
        "/#text" if step.test == "text()" else
        f"/@{step.test}" if step.axis == "attribute" else
        f"{'//' if step.axis == 'descendant' else '/'}{step.test}"
        for step in path.steps)


def _term_text(term, var: str, fallback: str) -> str:
    """One selection term: its access path and when it is exact."""
    hops = term.range
    leaf = _path_text(PathExpr(VarRef(var), hops.leaf_steps))
    if term.kind == "compare":
        scaled = term.scaled
        right = _path_text(PathExpr(VarRef(var), scaled.leaf_steps))
        return (f"ColumnCompare {leaf} {term.op} {term.scale:g} * {right} "
                f"(ContScan + Parent^{hops.ascend} | ContScan + "
                f"Parent^{scaled.ascend}, decoded in bulk, once per "
                "execution; exact where both are int/float record "
                "containers with a decode kernel and one value per "
                f"owner, else {fallback})")
    if term.kind == "substring":
        access, decided = (
            ("Parent^n + FirstHit", "exact (positional q-grams), no "
             "per-binding check: the owners whose first value holds it")
            if term.exact else
            ("Parent^n", "q-gram candidates, re-checked per binding"))
        return (f"ContSubstring {term.needle!r} on {leaf} + {access} "
                f"({decided}; n per container from the summary; "
                f"{fallback} where a container cannot index the needle)")
    if term.kind == "interval":
        access = (f"ContAccess interval "
                  f"{'[' if hops.low_inclusive else '('}{hops.low!r}, "
                  f"{hops.high!r}{']' if hops.high_inclusive else ')'} "
                  f"on {leaf}")
        order = "numeric" if hops.constant_kind == "number" else "string"
        note = (f"exact where the containers are {order}-ordered "
                f"records, else {fallback}")
    elif is_element_step(hops.leaf_steps[-1]):
        access = f"StructureSummaryAccess {term.kind} {leaf}"
        note = "exact: the summary's extents"
    else:
        access = f"ContScan {term.kind} {leaf}"
        note = f"exact on record containers, else {fallback}"
    return f"{access} + Parent^{_hops_text(hops.leaf_steps)} ({note})"


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
        parts += [f"[{p.value:g}]" if isinstance(p, NumberLiteral)
                  else "[…]" for p in step.predicates]
    return "".join(parts)
