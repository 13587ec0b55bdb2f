"""Query analysis and access-path selection.

The full cost-based optimizer is ongoing work in the paper (§5 notes the
measured plans do not use it); what the engine does apply — and what
this module provides — are the §4 evaluation strategies:

* **conjunct analysis** of ``where`` clauses, so equality joins between
  binding variables are executed with hash/merge joins instead of
  nested loops (the Figure 5 three-way join shape);
* **access-path selection**: a comparison between a variable's
  root-to-leaf path and a constant turns into a ``ContAccess`` interval
  search on the sorted container, followed by ``Parent`` steps back up —
  bottom-up evaluation — instead of scanning the variable's whole
  extent top-down.  :func:`assign_selection` assigns every such
  conjunct of a for-clause at once, as one operator tree.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.query.ast import (
    Arithmetic,
    Comparison,
    ContextItem,
    ElementConstructor,
    Expression,
    FLWOR,
    ForClause,
    FunctionCall,
    Logical,
    NumberLiteral,
    PathExpr,
    SequenceExpr,
    Step,
    StringLiteral,
    VarRef,
)
from repro.storage.summary import TEXT_STEP


def free_vars(expression: Expression | None) -> frozenset[str]:
    """Variables an expression references but does not bind."""
    if expression is None:
        return frozenset()
    names: set[str] = set()
    _collect_free(expression, set(), names)
    return frozenset(names)


def _collect_free(expr: Expression, bound: set[str],
                  names: set[str]) -> None:
    if isinstance(expr, VarRef):
        if expr.name not in bound:
            names.add(expr.name)
    elif isinstance(expr, PathExpr):
        if expr.start is not None:
            _collect_free(expr.start, bound, names)
        for step in expr.steps:
            for predicate in step.predicates:
                _collect_free(predicate, bound, names)
    elif isinstance(expr, (Comparison, Logical, Arithmetic)):
        _collect_free(expr.left, bound, names)
        _collect_free(expr.right, bound, names)
    elif isinstance(expr, FunctionCall):
        for arg in expr.args:
            _collect_free(arg, bound, names)
    elif isinstance(expr, SequenceExpr):
        for item in expr.items:
            _collect_free(item, bound, names)
    elif isinstance(expr, FLWOR):
        inner_bound = set(bound)
        for clause in expr.clauses:
            _collect_free(clause.source, inner_bound, names)
            inner_bound.add(clause.var)
        if expr.where is not None:
            _collect_free(expr.where, inner_bound, names)
        for spec in expr.order:
            _collect_free(spec.key, inner_bound, names)
        _collect_free(expr.result, inner_bound, names)
    elif isinstance(expr, ElementConstructor):
        for _, parts in expr.attributes:
            for part in parts:
                _collect_free(part, bound, names)
        for item in expr.content:
            _collect_free(item, bound, names)
    # Literals, TextLiteral, ContextItem: nothing to collect.


def flatten_conjuncts(expression: Expression | None) -> list[Expression]:
    """Split a where clause into its top-level ``and`` conjuncts."""
    if expression is None:
        return []
    if isinstance(expression, Logical) and expression.op == "and":
        return (flatten_conjuncts(expression.left)
                + flatten_conjuncts(expression.right))
    return [expression]


@dataclass(frozen=True)
class JoinPlan:
    """An equality conjunct usable as a hash join at one for-clause.

    ``build_expr`` references only the clause's variable (plus nothing
    else), so its key index can be cached across outer bindings;
    ``probe_expr`` references only already-bound variables.
    """

    conjunct: Comparison
    build_expr: Expression
    probe_expr: Expression


def find_join_plan(conjunct: Expression, clause_var: str,
                   bound_vars: set[str]) -> JoinPlan | None:
    """Classify a conjunct as a hash-joinable equality, if it is one."""
    if not isinstance(conjunct, Comparison) or conjunct.op != "=":
        return None
    left_vars = free_vars(conjunct.left)
    right_vars = free_vars(conjunct.right)
    # The probe side must actually reference bound variables; a
    # variable-vs-constant equality is a selection (RangePlan), not a
    # join.
    if left_vars == {clause_var} and right_vars and \
            right_vars <= bound_vars:
        return JoinPlan(conjunct, conjunct.left, conjunct.right)
    if right_vars == {clause_var} and left_vars and \
            left_vars <= bound_vars:
        return JoinPlan(conjunct, conjunct.right, conjunct.left)
    return None


@dataclass(frozen=True)
class ThetaPlan:
    """An inequality conjunct answerable by position at one for-clause,
    normalised to ``scale * $clause_var/leaf_steps <op> probe_expr``.

    ``scale`` is ``None`` for a bare key path — untyped text, which
    orders numerically only against an actual number — and the positive
    multiplier of ``K * path``, which is a number whatever it faces.
    """

    conjunct: Comparison
    leaf_steps: tuple[Step, ...]
    op: str
    scale: float | None
    probe_expr: Expression
    ascend: int


def find_theta_plan(conjunct: Expression, clause_var: str,
                    bound_vars: set[str]) -> ThetaPlan | None:
    """Classify a conjunct as a sort-based inequality join, if it is."""
    if not isinstance(conjunct, Comparison) or \
            conjunct.op not in ("<", "<=", ">", ">="):
        return None
    for key, probe, op in (
            (conjunct.left, conjunct.right, conjunct.op),
            (conjunct.right, conjunct.left, _flip(conjunct.op))):
        probe_vars = free_vars(probe)
        if not probe_vars or clause_var in probe_vars or \
                not probe_vars <= bound_vars:
            continue
        scale = None
        if isinstance(key, Arithmetic) and key.op == "*":
            factor, key = (key.left, key.right) \
                if isinstance(key.left, NumberLiteral) \
                else (key.right, key.left)
            # Only a finite K > 0 keeps the container's order.
            if not isinstance(factor, NumberLiteral) or \
                    not 0.0 < factor.value < float("inf"):
                continue
            scale = factor.value
        steps = _simple_value_steps(key, clause_var)
        if steps is not None:
            return ThetaPlan(conjunct, steps, op, scale, probe,
                             _ascend(steps))
    return None


@dataclass(frozen=True)
class RangePlan:
    """A constant comparison turned into a container interval search.

    ``leaf_steps`` navigates from the clause variable down to the value
    (all plain child/attribute/text steps); ``low``/``high`` bound the
    sorted container; ``ascend`` counts the ``Parent`` hops from the
    container's parent elements back up to the variable's nodes.
    """

    leaf_steps: tuple[Step, ...]
    low: str | None
    high: str | None
    low_inclusive: bool
    high_inclusive: bool
    ascend: int
    #: "string" or "number" — the access path is only sound when the
    #: container's sort order matches the constant's comparison order.
    constant_kind: str = "string"


def find_range_plan(conjunct: Expression, clause_var: str | None
                    ) -> RangePlan | None:
    """Turn ``$v/simple/path <op> constant`` into a RangePlan
    (``clause_var`` ``None``: the path starts at the context item of a
    step predicate)."""
    if not isinstance(conjunct, Comparison):
        return None
    candidates = [(conjunct.left, conjunct.right, conjunct.op),
                  (conjunct.right, conjunct.left, _flip(conjunct.op))]
    for path_side, const_side, op in candidates:
        constant = _constant_string(const_side)
        if constant is None:
            continue
        steps = _simple_value_steps(path_side, clause_var)
        if steps is None:
            continue
        kind = ("number" if isinstance(const_side, NumberLiteral)
                else "string")
        ascend = _ascend(steps)
        if op == "=":
            return RangePlan(steps, constant, constant, True, True,
                             ascend, kind)
        if op == "<":
            return RangePlan(steps, None, constant, True, False,
                             ascend, kind)
        if op == "<=":
            return RangePlan(steps, None, constant, True, True,
                             ascend, kind)
        if op == ">":
            return RangePlan(steps, constant, None, False, True,
                             ascend, kind)
        if op == ">=":
            return RangePlan(steps, constant, None, True, True,
                             ascend, kind)
    return None


@dataclass(frozen=True)
class SelectionTerm:
    """One conjunct decided on the containers ``range.leaf_steps``
    reach, as a set of the clause variable's nodes: ``interval`` — the
    owners (``range.ascend`` ``Parent`` hops up) of the values inside
    ``range``'s bounds; ``exists`` — the owners of any value;
    ``not-exists`` — the source nodes owning none.

    ``exact``: the access path *is* the reference comparison, so the
    conjunct is not re-checked per binding.  ``assign_selection``
    clears it, from the data, for blob containers.
    """

    conjunct: Expression
    kind: str
    range: RangePlan
    exact: bool = True


@dataclass(frozen=True)
class SelectionPlan:
    """The constant selections of one for-clause over the absolute
    simple path ``source`` (the clause's source less the predicates of
    its last step, which are terms like the ``where`` conjuncts)."""

    source: PathExpr
    terms: tuple[SelectionTerm, ...]


def _selection_term(conjunct: Expression, clause_var: str | None
                    ) -> SelectionTerm | None:
    """``$v/leaf op const`` (either way round), ``empty($v/leaf)`` or
    ``not(empty($v/leaf))`` as a term; anything else is ``None``."""
    plan = find_range_plan(conjunct, clause_var)
    if plan is not None:
        return SelectionTerm(conjunct, "interval", plan)
    kind, call = "not-exists", conjunct
    if isinstance(call, FunctionCall) and call.name == "not" and \
            len(call.args) == 1:
        kind, call = "exists", call.args[0]
    if isinstance(call, FunctionCall) and call.name == "empty" and \
            len(call.args) == 1:
        steps = _simple_value_steps(call.args[0], clause_var)
        if steps is not None:
            return SelectionTerm(conjunct, kind, RangePlan(
                steps, None, None, True, True, _ascend(steps)))
    return None


def find_selection_plan(clause: ForClause, decidable: list[Expression]
                        ) -> SelectionPlan | None:
    """Classify every single-variable conjunct of a for-clause.

    The source must be an absolute simple path, save for predicates on
    its last step — and then each of those must be a term (a positional
    or general predicate keeps per-step evaluation).  ``where``
    conjuncts that are not terms stay with the per-binding check.
    """
    source = clause.source
    if not isinstance(source, PathExpr) or not source.steps:
        return None
    predicates = source.steps[-1].predicates
    if predicates:
        source = replace(source, steps=source.steps[:-1] + (
            replace(source.steps[-1], predicates=()),))
    if not is_absolute_simple_path(source):
        return None
    terms = [_selection_term(p, None) for p in predicates]
    if None in terms:
        return None
    terms += [term for term in (_selection_term(c, clause.var)
                                for c in decidable) if term is not None]
    return SelectionPlan(source, tuple(terms)) if terms else None


def _constant_string(expr: Expression) -> str | None:
    if isinstance(expr, StringLiteral):
        return expr.value
    if isinstance(expr, NumberLiteral):
        value = expr.value
        if value == int(value):
            return str(int(value))
        return repr(value)
    return None


def _simple_value_steps(expr: Expression, clause_var: str | None
                        ) -> tuple[Step, ...] | None:
    """``$v/a/b/text()`` or ``$v/@id`` -> its steps; else ``None``.

    Only predicate-free child/attribute/text chains qualify — those are
    exactly the root-to-leaf paths that have their own container.
    ``clause_var`` ``None`` asks for a path from the context item.
    """
    if not isinstance(expr, PathExpr):
        return None
    if expr.start != (ContextItem() if clause_var is None
                      else VarRef(clause_var)):
        return None
    if not expr.steps:
        return None
    for step in expr.steps:
        if step.predicates:
            return None
        if step.axis not in ("child", "attribute"):
            return None
    last = expr.steps[-1]
    if last.axis == "attribute" or last.test == "text()":
        return expr.steps
    return None


def _ascend(steps: tuple[Step, ...]) -> int:
    """``Parent`` hops from a value's owning element back up to the
    clause variable's node: one per element step."""
    return sum(1 for s in steps
               if s.axis == "child" and s.test != "text()")


def _flip(op: str) -> str:
    return {"=": "=", "!=": "!=", "<": ">", "<=": ">=",
            ">": "<", ">=": "<="}[op]


@dataclass(frozen=True)
class FullTextPlan:
    """A ``word-contains($v/path, "w")`` conjunct answerable by a
    full-text index (§6 extension)."""

    leaf_steps: tuple[Step, ...]
    words: tuple[str, ...]
    ascend: int


def find_fulltext_plan(conjunct: Expression, clause_var: str
                       ) -> FullTextPlan | None:
    """Classify an indexable whole-word containment conjunct."""
    if not isinstance(conjunct, FunctionCall) or \
            conjunct.name != "word-contains":
        return None
    if len(conjunct.args) != 2:
        return None
    path_arg, needle_arg = conjunct.args
    if not isinstance(needle_arg, StringLiteral):
        return None
    steps = _simple_value_steps(path_arg, clause_var)
    if steps is None:
        return None
    words = tuple(needle_arg.value.split())
    if not words:
        return None
    return FullTextPlan(steps, words, _ascend(steps))


def is_absolute_simple_path(expr: Expression) -> bool:
    """Absolute, predicate-free element path (summary-resolvable)."""
    if not isinstance(expr, PathExpr) or expr.start is not None:
        return False
    return all(not s.predicates and s.axis in ("child", "descendant")
               and s.test != "text()" for s in expr.steps)


def assign_theta_join(clause: ForClause, decidable: list[Expression],
                      bound_vars: set[str], repo_of, left=None,
                      stats=None):
    """``(ThetaPlan, ThetaJoin)`` for the clause's first theta conjunct
    whose key path ends at numeric-ordered containers, else ``None``:
    the assignment the engine runs and the Tier-A sketch verifies.

    The source must be an absolute simple path (binding independent,
    summary-resolvable); ``repo_of`` maps its document name to a
    repository.  The operator is returned unbuilt.
    """
    from repro.query.physical import ThetaJoin
    if not is_absolute_simple_path(clause.source):
        return None
    repository = repo_of(clause.source.document)
    for conjunct in decidable:
        plan = find_theta_plan(conjunct, clause.var, bound_vars)
        if plan is None:
            continue
        paths = [leaf.container_path for leaf in repository.resolve_path(
            leaf_summary_steps(clause.source, plan.leaf_steps))]
        if None in paths:
            continue  # the key path does not end at containers
        join = ThetaJoin(left, repository, paths, plan.op, None,
                         f"${clause.var}", scale=plan.scale or 1.0,
                         ascend=plan.ascend, stats=stats)
        if join.numeric_ordered():
            return plan, join
    return None


def _order_answers(container, plan: RangePlan) -> bool:
    """Is the container's slot order the reference comparison against
    the plan's constant?  A number orders numerically, so only typed
    numeric containers answer it; a string constant orders untyped text
    lexicographically ("10" < "9"), so only string containers do.  The
    whole container (``exists``) needs no order at all."""
    if plan.low is None and plan.high is None:
        return True
    return (plan.constant_kind == "number") == \
        (container.value_type in ("int", "float"))


def _term_owners(term: SelectionTerm, repository, steps, paths,
                 column: str, stats):
    """The owners of a term's values as an operator emitting ``column``
    (one row per value): ``ContAccess`` on every container of
    ``paths`` — ``ContScan`` for the existence kinds — and one
    ``Parent`` hop per ``ascend``; several containers united."""
    from repro.query.physical import (ContAccess, ContScan, NodeSet,
                                      Parent, StructureSummaryAccess)
    hops = term.range
    # The owner column first, the name of each hop's output after it.
    names = [f"{column}~up{hop}"
             for hop in range(hops.ascend, 0, -1)] + [column]
    owners = None
    for path in paths:
        node = ContAccess(
            repository, path, names[0], f"{column}~value", hops.low,
            hops.high, hops.low_inclusive, hops.high_inclusive,
            stats=stats) if term.kind == "interval" else ContScan(
            repository, path, names[0], f"{column}~value", stats)
        for below, above in zip(names, names[1:]):
            node = Parent(node, repository, below, above, stats)
        owners = node if owners is None else \
            NodeSet(owners, node, column, "union")
    if owners is None:  # no such path in this document: nobody
        owners = StructureSummaryAccess(repository, steps, column, stats)
    return owners


def assign_selection(clause: ForClause, decidable: list[Expression],
                     repo_of, stats=None):
    """``(SelectionPlan, operator)`` for the clause's constant
    selections, else ``None``: the tree the engine runs, the Tier-A
    verifier checks and ``explain`` describes.

    The plan keeps the terms the data can answer: every container
    under a term's leaf path must be ordered the way its constant
    compares (:func:`_order_answers`), else the conjunct stays with the
    per-binding check — or, for a step predicate, which has none,
    nothing is assigned.  A blob container answers but is not ``exact``.
    The operator emits the selected nodes of ``$var``, each once, in
    document order: the terms' owners (:func:`_term_owners`) combined
    by :class:`~repro.query.physical.NodeSet` — intersected,
    ``not-exists`` subtracted (from the source's
    ``StructureSummaryAccess`` when nothing else is left).
    """
    from repro.query.physical import NodeSet, StructureSummaryAccess
    plan = find_selection_plan(clause, decidable)
    if plan is None:
        return None
    repository = repo_of(plan.source.document)
    column = f"${clause.var}"
    required = len(clause.source.steps[-1].predicates)
    terms: list[SelectionTerm] = []
    selected = excluded = None
    for position, term in enumerate(plan.terms):
        steps = leaf_summary_steps(plan.source, term.range.leaf_steps)
        paths = [leaf.container_path
                 for leaf in repository.resolve_path(steps)]
        if stats is not None:
            stats.summary_accesses += 1
        containers = [] if None in paths else \
            [repository.container(path) for path in paths]
        usable = None not in paths and all(
            _order_answers(c, term.range) for c in containers)
        exact = usable and not any(c.is_blob for c in containers)
        if position < required and not exact:
            return None
        if not usable:
            continue
        terms.append(term if exact else replace(term, exact=False))
        owners = _term_owners(term, repository, steps, paths, column,
                              stats)
        if term.kind == "not-exists":
            excluded = owners if excluded is None else \
                NodeSet(excluded, owners, column, "union")
        else:
            selected = owners if selected is None else \
                NodeSet(selected, owners, column, "intersect")
    if not terms:
        return None
    if excluded is not None:
        if selected is None:
            selected = StructureSummaryAccess(
                repository, leaf_summary_steps(plan.source, ()), column,
                stats)
        selected = NodeSet(selected, excluded, column, "difference")
    elif not isinstance(selected, NodeSet):
        selected = NodeSet(selected, None, column)
    return SelectionPlan(plan.source, tuple(terms)), selected


def leaf_summary_steps(source: PathExpr, leaf_steps: tuple[Step, ...]
                       ) -> list[tuple[str, str]]:
    """Structure-summary steps from the document root, through an
    absolute ``source`` path, down a plan's ``leaf_steps`` to the value
    containers."""
    return [("child", "@" + s.test) if s.axis == "attribute"
            else (s.axis, TEXT_STEP if s.test == "text()" else s.test)
            for s in source.steps + tuple(leaf_steps)]


def context_free(expr: Expression) -> bool:
    """True when the expression never touches the context item."""
    if isinstance(expr, ContextItem):
        return False
    if isinstance(expr, PathExpr):
        if expr.start is not None and not context_free(expr.start):
            return False
        return all(context_free(p) for s in expr.steps
                   for p in s.predicates)
    if isinstance(expr, (Comparison, Logical, Arithmetic)):
        return context_free(expr.left) and context_free(expr.right)
    if isinstance(expr, FunctionCall):
        return all(context_free(a) for a in expr.args)
    if isinstance(expr, SequenceExpr):
        return all(context_free(i) for i in expr.items)
    if isinstance(expr, FLWOR):
        return (all(context_free(c.source) for c in expr.clauses)
                and (expr.where is None or context_free(expr.where))
                and all(context_free(s.key) for s in expr.order)
                and context_free(expr.result))
    if isinstance(expr, ElementConstructor):
        return (all(context_free(p) for _, parts in expr.attributes
                    for p in parts)
                and all(context_free(c) for c in expr.content))
    return True
