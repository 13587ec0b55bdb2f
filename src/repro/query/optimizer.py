"""Query planning: one walk decides how every FLWOR is evaluated.

The full cost-based optimizer is ongoing work in the paper (§5 notes the
measured plans do not use it); what this module provides are the §4
evaluation strategies, chosen **once per query**:

* :func:`plan_query` walks a parsed query with the variables actually
  in scope and returns a frozen :class:`QueryPlan`: per FLWOR, per
  clause, the ``where`` conjuncts that become decidable there and the
  strategy they select (:class:`ClausePlan` holds the precedence), and
  per relative path below a for-variable that the summary answers its
  :class:`ProjectionPlan`.  The engine executes that plan, the plan
  cache keeps it — nobody else classifies a conjunct or a path;
* :func:`bind_plan` binds a plan to repositories, once per prepare,
  into a :class:`BoundPlan`: the operators every run executes and, the
  same objects, what the Tier-A verifier checks and ``explain``
  prints.  Constant selections (:func:`assign_selection`:
  ``ContAccess`` interval searches on the sorted containers,
  ``ContSubstring`` candidates for ``contains``, ``Parent`` steps back
  up — bottom-up evaluation — and
  ``ColumnCompare`` for ``$v/p <op> K * $v/q``), equality joins
  (:func:`assign_equi_join`: one ``MergeJoin`` over the two
  value-sorted key containers) and inequality joins
  (:func:`assign_theta_join`) are the very trees the engine runs;
  a projection (:func:`assign_projection`) is ``ContScan →
  Parent^k`` over the path's leaf containers and
  ``StructureSummaryAccess → Parent^k`` over its element extents, read
  off their owner groups; every absolute path's summary prefix is
  resolved there too.  Nothing is resolved or assigned at run time;
* a FLWOR whose for-clauses' strategies decide every binding gets a
  :class:`RowPlan` (:func:`_row_plan`), bound into :class:`BoundRows`
  — the same operators and projections, each constructor compiled
  into a :class:`Template` — that the engine runs as columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

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
from repro.query.context import CompressedItem, NodeItem
from repro.query.functions import tokenize
from repro.query.physical import (ColumnCompare, Concat, ContAccess,
                                  ContScan, ContSubstring, Decompress,
                                  FirstHit, MergeJoin, NodeSet, Operator,
                                  Parent, Sort, StructureSummaryAccess,
                                  ThetaJoin)
from repro.storage.containers import SUBSTRING_Q
from repro.storage.summary import TEXT_STEP
from repro.xmlio.escape import escape_attribute, escape_text


def _children(expr: Expression) -> tuple[Expression, ...]:
    """The sub-expressions the evaluator can reach from ``expr``, a
    FLWOR's in binding order: clause sources, where, order keys,
    result."""
    if isinstance(expr, PathExpr):
        start = () if expr.start is None else (expr.start,)
        return start + tuple(p for s in expr.steps for p in s.predicates)
    if isinstance(expr, (Comparison, Logical, Arithmetic)):
        return (expr.left, expr.right)
    if isinstance(expr, FunctionCall):
        return expr.args
    if isinstance(expr, SequenceExpr):
        return expr.items
    if isinstance(expr, FLWOR):
        where = () if expr.where is None else (expr.where,)
        return (*(c.source for c in expr.clauses), *where,
                *(s.key for s in expr.order), expr.result)
    if isinstance(expr, ElementConstructor):
        return (*(p for _, parts in expr.attributes for p in parts),
                *expr.content)
    return ()  # literals, VarRef, ContextItem


def free_vars(expression: Expression | None,
              bound: frozenset[str] = frozenset()) -> frozenset[str]:
    """Variables an expression references but does not bind (nor does
    ``bound``)."""
    if expression is None:
        return frozenset()
    if isinstance(expression, VarRef):
        return frozenset({expression.name}) - bound
    names: frozenset[str] = frozenset()
    children = _children(expression)
    if isinstance(expression, FLWOR):
        # A clause's variable is bound for whatever follows its source.
        for clause in expression.clauses:
            names |= free_vars(clause.source, bound)
            bound = bound | {clause.var}
        children = children[len(expression.clauses):]
    for child in children:
        names |= free_vars(child, bound)
    return names


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
    """An equality conjunct between one for-clause's variable and
    already-bound ones.

    ``build_expr`` references only the clause's variable, ``probe_expr``
    only the bound ``probe_vars``.  The key fields are filled when both
    sides are simple value paths (``$t/buyer/@person = $p/@id``), the
    clause's source is an absolute simple path and the one probe
    variable's nodes are found on the summary: ``probe_source`` is the
    absolute path of the for-clause that binds it in scope, step
    predicates dropped (a superset of its nodes).  That is the plan
    :func:`assign_equi_join` runs as a ``MergeJoin``; without the key
    fields the conjunct is checked per binding.
    """

    conjunct: Comparison
    build_expr: Expression
    probe_expr: Expression
    probe_vars: tuple[str, ...]
    build_steps: tuple[Step, ...] | None = None
    probe_steps: tuple[Step, ...] | None = None
    probe_source: PathExpr | None = None


def find_join_plan(conjunct: Expression, clause_var: str,
                   bound_vars: set[str]) -> JoinPlan | None:
    """Classify a conjunct as an equality join, if it is one."""
    if not isinstance(conjunct, Comparison) or conjunct.op != "=":
        return None
    for build, probe in ((conjunct.left, conjunct.right),
                         (conjunct.right, conjunct.left)):
        # The probe side must actually reference bound variables; a
        # variable-vs-constant equality is a selection (RangePlan).
        probe_vars = free_vars(probe)
        if free_vars(build) == {clause_var} and probe_vars and \
                clause_var not in probe_vars and probe_vars <= bound_vars:
            return JoinPlan(conjunct, build, probe,
                            tuple(sorted(probe_vars)))
    return None


def _with_key_paths(plan: JoinPlan, clause: ForClause,
                    nodes: dict[str, PathExpr | None]) -> JoinPlan:
    """``plan`` with its key fields filled where they can be; ``nodes``
    maps the variables in scope to :func:`_node_path` of their
    binding for-clause (``None`` for any other binding)."""
    if len(plan.probe_vars) != 1 or \
            not is_absolute_simple_path(clause.source):
        return plan
    (probe_var,) = plan.probe_vars
    build_steps = _simple_value_steps(plan.build_expr, clause.var)
    probe_steps = _simple_value_steps(plan.probe_expr, probe_var)
    probe_source = nodes.get(probe_var)
    if build_steps is None or probe_steps is None or probe_source is None:
        return plan
    return replace(plan, build_steps=build_steps, probe_steps=probe_steps,
                   probe_source=probe_source)


def _node_path(source: Expression) -> PathExpr | None:
    """A for-clause source's absolute element path without its step
    predicates — summary-resolvable, and a superset of the nodes the
    clause binds — else ``None``."""
    if not isinstance(source, PathExpr):
        return None
    bare = replace(source, steps=tuple(
        replace(step, predicates=()) for step in source.steps))
    return bare if bare.steps and is_absolute_simple_path(bare) else None


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
    probe_vars: tuple[str, ...]


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
                             parent_hops(steps), tuple(sorted(probe_vars)))
    return None


@dataclass(frozen=True)
class RangePlan:
    """A constant comparison turned into a container interval search.

    ``leaf_steps`` navigates from the clause variable down to the value
    (all plain child/attribute/text steps); ``low``/``high`` bound the
    sorted container; ``ascend`` counts the ``Parent`` hops from the
    container's parent elements back up to the variable's nodes —
    ``None`` where ``leaf_steps`` has a ``//`` and the count is read
    per container from the structure summary.
    """

    leaf_steps: tuple[Step, ...]
    low: str | None
    high: str | None
    low_inclusive: bool
    high_inclusive: bool
    ascend: int | None
    #: "string" or "number" — the access path is only sound when the
    #: container's sort order matches the constant's comparison order.
    constant_kind: str = "string"


#: comparison -> (bounded below, bounded above, low inclusive, high
#: inclusive) of ``path <op> constant``.
_INTERVALS = {"=": (True, True, True, True),
              "<": (False, True, True, False),
              "<=": (False, True, True, True),
              ">": (True, False, False, True),
              ">=": (True, False, True, True)}


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
        if op in _INTERVALS:
            low, high, low_inclusive, high_inclusive = _INTERVALS[op]
            return RangePlan(
                steps, constant if low else None,
                constant if high else None, low_inclusive,
                high_inclusive, parent_hops(steps),
                "number" if isinstance(const_side, NumberLiteral)
                else "string")
    return None


@dataclass(frozen=True)
class SelectionTerm:
    """One conjunct decided on the containers ``range.leaf_steps``
    reach, as a set of the clause variable's nodes: ``interval`` — the
    owners (``range.ascend`` ``Parent`` hops up) of the values inside
    ``range``'s bounds; ``exists`` — the owners of any value;
    ``not-exists`` — the source nodes owning none; ``substring`` — the
    source nodes whose first value (``contains`` reads the first item
    of its sequence) contains ``needle``, or, inexact, every one above
    a value that may; ``compare`` — the owners of a value ``l`` of
    ``range`` and a value ``r`` of ``scaled`` with ``l <op> scale * r``
    (``$v/p <op> K * $v/q``).

    ``exact``: the access path *is* the reference comparison, so the
    conjunct is not re-checked per binding.  ``assign_selection``
    clears it, from the data, for blob containers.  A ``substring``
    term is exact for ``contains`` with a needle of at least q
    characters (positional q-grams decide it); ``word-contains`` wants
    whole words in any case, and a shorter needle has no q-gram, so
    those get a superset of candidates.
    """

    conjunct: Expression
    kind: str
    range: RangePlan
    exact: bool = True
    needle: str | None = None
    op: str | None = None
    scale: float | None = None
    scaled: RangePlan | None = None


@dataclass(frozen=True)
class SelectionPlan:
    """The constant selections of one for-clause over the absolute
    simple path ``source`` (the clause's source less the predicates of
    its last step, which are terms like the ``where`` conjuncts)."""

    source: PathExpr
    terms: tuple[SelectionTerm, ...]


def _selection_term(conjunct: Expression, clause_var: str | None
                    ) -> SelectionTerm | None:
    """``$v/leaf op const`` (either way round), ``empty($v/leaf)``,
    ``not(empty($v/leaf))`` or ``contains`` / ``word-contains($v/leaf,
    "literal")`` — in a step predicate only an exact one — as a term;
    anything else is ``None``."""
    plan = find_range_plan(conjunct, clause_var)
    if plan is not None:
        return SelectionTerm(conjunct, "interval", plan)
    compare = _compare_term(conjunct, clause_var)
    if compare is not None:
        return compare
    if isinstance(conjunct, FunctionCall) \
            and conjunct.name in ("contains", "word-contains") \
            and len(conjunct.args) == 2 \
            and isinstance(conjunct.args[1], StringLiteral):
        steps = _simple_value_steps(conjunct.args[0], clause_var,
                                    descendants=True)
        # Every word must be in the value: the longest selects best.
        needle = conjunct.args[1].value if conjunct.name == "contains" \
            else max(tokenize(conjunct.args[1].value), key=len,
                     default="")
        exact = conjunct.name == "contains" and len(needle) >= SUBSTRING_Q
        # A step predicate has no per-binding check to re-check with.
        if steps is None or not needle or \
                clause_var is None and not exact:
            return None
        return SelectionTerm(
            conjunct, "substring",
            RangePlan(steps, None, None, True, True, ascend=None),
            exact=exact, needle=needle)
    kind, call = "not-exists", conjunct
    if isinstance(call, FunctionCall) and call.name == "not" and \
            len(call.args) == 1:
        kind, call = "exists", call.args[0]
    if isinstance(call, FunctionCall) and call.name == "empty" and \
            len(call.args) == 1:
        steps = _simple_value_steps(call.args[0], clause_var) or \
            _element_steps(call.args[0], clause_var)
        if steps is not None:
            return SelectionTerm(conjunct, kind, _whole(steps))
    elif call is conjunct:  # a bare element path holds if it has a node
        steps = _element_steps(conjunct, clause_var)
        if steps is not None:
            return SelectionTerm(conjunct, "exists", _whole(steps))
    return None


def _compare_term(conjunct: Expression, clause_var: str | None
                  ) -> SelectionTerm | None:
    """``$v/p <op> K * $v/q`` in a ``where`` (either way round, ``K``
    a finite number on either side of ``*``) as a ``compare`` term."""
    if clause_var is None or not isinstance(conjunct, Comparison) or \
            conjunct.op not in _INTERVALS:
        return None
    for plain, scaled, op in (
            (conjunct.left, conjunct.right, conjunct.op),
            (conjunct.right, conjunct.left, _flip(conjunct.op))):
        if not isinstance(scaled, Arithmetic) or scaled.op != "*":
            continue
        factor, path = (scaled.left, scaled.right) \
            if _number(scaled.left) is not None \
            else (scaled.right, scaled.left)
        scale = _number(factor)
        left = _simple_value_steps(plain, clause_var)
        right = _simple_value_steps(path, clause_var)
        if scale is not None and math.isfinite(scale) and left and right:
            return SelectionTerm(conjunct, "compare", _whole(left), op=op,
                                 scale=scale, scaled=_whole(right))
    return None


def _number(expr: Expression) -> float | None:
    """A number literal's value — ``-K`` parses as ``0 - K`` — else
    ``None``."""
    if isinstance(expr, Arithmetic) and expr.op == "-":
        left, right = _number(expr.left), _number(expr.right)
        return None if left is None or right is None else left - right
    return expr.value if isinstance(expr, NumberLiteral) else None


def _whole(steps: tuple[Step, ...]) -> RangePlan:
    """Every value or element ``steps`` reach, unbounded (``ascend``
    read off the summary where a step is ``//``)."""
    return RangePlan(steps, None, None, True, True, None if any(
        s.axis == "descendant" for s in steps) else parent_hops(steps))


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


def _simple_value_steps(expr: Expression, clause_var: str | None,
                        descendants: bool = False
                        ) -> tuple[Step, ...] | None:
    """``$v/a/b/text()`` or ``$v/@id`` -> its steps; else ``None``.

    Only predicate-free child/attribute/text chains qualify — those are
    exactly the root-to-leaf paths that have their own container — and,
    with ``descendants``, ``//`` steps, which reach several.
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
        if step.axis not in ("child", "attribute") and \
                not (descendants and step.axis == "descendant"):
            return None
    last = expr.steps[-1]
    if last.axis == "attribute" or last.test == "text()":
        return expr.steps
    return None


def _relative_steps(expr: Expression, clause_var: str | None
                    ) -> tuple[Step, ...] | None:
    """``expr``'s steps where it is a path below ``$clause_var`` (the
    context item for ``None``) that the summary's extents answer: child
    and ``//`` element steps — a child one may carry one positive
    integer position (:func:`_position`) — ending at an element, an
    attribute or a child ``text()``; else ``None``."""
    if not isinstance(expr, PathExpr) or not expr.steps or \
            expr.start != (ContextItem() if clause_var is None
                           else VarRef(clause_var)):
        return None
    if not all(map(is_element_step, expr.steps[:-1])) or \
            not all(map(_answerable, expr.steps)):
        return None
    return expr.steps


def _answerable(step: Step) -> bool:
    """A child or ``//`` element step — a child one with at most one
    positive integer position — an attribute or a child ``text()``."""
    if not is_element_step(step):
        return step.axis in ("child", "attribute") and not step.predicates
    return step.axis in ("child", "descendant") and (
        not step.predicates
        or step.axis == "child" and _position(step) is not None)


def _element_steps(expr: Expression, clause_var: str | None
                   ) -> tuple[Step, ...] | None:
    """:func:`_relative_steps` of a predicate-free path ending at an
    element (``$v/a``, ``$v//a/b``); else ``None``."""
    steps = _relative_steps(expr, clause_var)
    if steps is None or not is_element_step(steps[-1]) or \
            any(step.predicates for step in steps):
        return None
    return steps


def is_element_step(step: Step) -> bool:
    """The step reaches elements, not attribute or text values."""
    return step.axis != "attribute" and step.test != "text()"


def _position(step: Step) -> int | None:
    """``k`` of a step whose one predicate is the integer ``k >= 1``."""
    if len(step.predicates) != 1 or \
            not isinstance(step.predicates[0], NumberLiteral):
        return None
    value = step.predicates[0].value
    return int(value) if math.isfinite(value) and value >= 1 and \
        value == int(value) else None


def parent_hops(steps: tuple[Step, ...]) -> int:
    """``Parent`` hops from a value's owning element — or from an
    element the steps end at — back up to the clause variable's node:
    one per child element step."""
    return sum(1 for s in steps
               if s.axis == "child" and s.test != "text()")


def _flip(op: str) -> str:
    return {"=": "=", "!=": "!=", "<": ">", "<=": ">=",
            ">": "<", ">=": "<="}[op]


def is_absolute_simple_path(expr: Expression) -> bool:
    """Absolute, predicate-free element path (summary-resolvable)."""
    if not isinstance(expr, PathExpr) or expr.start is not None:
        return False
    return all(not s.predicates and s.axis in ("child", "descendant")
               and s.test != "text()" for s in expr.steps)


def assign_theta_join(clause: ForClause, plans: tuple[ThetaPlan, ...],
                      repo_of):
    """``(ThetaPlan, ThetaJoin)`` for the first of the clause's theta
    candidates whose key path ends at numeric-ordered containers, else
    ``None``: the assignment the engine runs and the Tier-A verifier
    checks.

    The clause's source is an absolute simple path (``plan_query``
    keeps no candidate otherwise); ``repo_of`` maps its document name
    to a repository.  The operator is returned built; where
    :meth:`~repro.query.physical.ThetaJoin.build` refuses, ``None``.
    """
    repository = repo_of(clause.source.document)
    for plan in plans:
        paths = [leaf.container_path for leaf in repository.resolve_path(
            leaf_summary_steps(clause.source, plan.leaf_steps))]
        if None in paths:
            continue  # the key path does not end at containers
        join = ThetaJoin(repository, paths, plan.op, f"${clause.var}",
                         scale=plan.scale or 1.0, ascend=plan.ascend)
        if join.numeric_ordered():
            return (plan, join) if join.build() else None
    return None


def assign_equi_join(clause: ForClause, plan: JoinPlan, repo_of):
    """``(JoinPlan, MergeJoin)`` pairing every node of the probe
    variable with every node of the clause's source that shares a key
    value, else ``None``: the assignment the engine runs and the Tier-A
    verifier checks.

    Each side is :func:`_key_stream` over its own document's
    repository; the join's rows carry both owners (``$probe`` and
    ``$var`` columns).  Refused — the conjunct is then checked per
    binding — without the plan's key fields, or where a side is not
    a string record container path (:func:`_key_stream`).
    """
    if plan.probe_source is None:
        return None
    (probe_var,) = plan.probe_vars
    sides = [_key_stream(repo_of(source.document), source, steps,
                         f"${var}")
             for source, steps, var in (
                 (plan.probe_source, plan.probe_steps, probe_var),
                 (clause.source, plan.build_steps, clause.var))]
    if None in sides:
        return None
    (probe, probe_key), (build, build_key) = sides
    return plan, MergeJoin(probe, build, probe_key, build_key)


def _key_stream(repository, source: PathExpr, steps: tuple[Step, ...],
                column: str):
    """``(operator, key column)``: every value ``steps`` reach below the
    nodes of ``source``, decoded, beside its owner in ``column``, in
    value order — ``ContScan → Parent^ascend → Decompress`` on each
    key container the summary names, several concatenated and then
    ``Sort``-ed.  ``None`` unless the summary names a key container
    and each is a string-typed record container: slot order is then
    the string order the reference compares by, and decoded keys
    compare across two sides trained on different source models."""
    leaves = repository.resolve_path(leaf_summary_steps(source, steps))
    paths = [leaf.container_path for leaf in leaves]
    if not paths or None in paths:
        return None
    if any(c.is_blob or c.value_type != "string"
           for c in map(repository.container, paths)):
        return None
    key, hops = f"{column}~key", parent_hops(steps)
    stream = None
    for path in paths:
        node = _climb(ContScan(repository, path, _hop_column(column, hops),
                               key), repository, column, hops)
        stream = node if stream is None else Concat(stream, node)
    stream = Decompress(stream, [key])
    if len(paths) > 1:
        stream = Sort(stream, (key,))
    return stream, key


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


def _leaf_access(term: SelectionTerm, repository, path: str,
                 id_column: str, value_column: str) -> Operator:
    """The container operator of a term's kind: ``ContAccess``
    (interval), ``ContSubstring`` or — existence — ``ContScan``."""
    if term.kind == "interval":
        bounds = term.range
        return ContAccess(repository, path, id_column, value_column,
                          bounds.low, bounds.high, bounds.low_inclusive,
                          bounds.high_inclusive)
    if term.kind == "substring":
        return ContSubstring(repository, path, id_column, value_column,
                             term.needle, term.conjunct.name, term.exact)
    return ContScan(repository, path, id_column, value_column)


def _hop_column(column: str, hop: int) -> str:
    """The column of the nodes ``hop`` ``Parent`` steps below
    ``column``'s."""
    return f"{column}~up{hop}" if hop else column


def _climb(node: Operator, repository, column: str, hops: int
           ) -> Operator:
    """``node`` and ``hops`` ``Parent`` steps from its
    ``_hop_column(column, hops)`` up to ``column``."""
    for hop in range(hops, 0, -1):
        node = Parent(node, repository, _hop_column(column, hop),
                      _hop_column(column, hop - 1))
    return node


def _summary_hops(leaf, reach: dict) -> list[int]:
    """``Parent`` hops from ``leaf``'s elements — the elements owning
    its values, for a value leaf — up to each summary node of ``reach``
    above it from which the leaf is reached (``reach``: ``id`` of a
    source node -> the ids of the leaf nodes its leaf steps resolve
    to): several when a source element nests inside itself."""
    found, hops = [], 0
    node = leaf if leaf.container_path is None else leaf.parent
    while node is not None:
        if id(leaf) in reach.get(id(node), ()):
            found.append(hops)
        node, hops = node.parent, hops + 1
    return found


def _term_owners(term: SelectionTerm, repository, source: PathExpr,
                 leaves, column: str):
    """The owners of a term's values as an operator emitting ``column``:
    :func:`_leaf_access` on the container of every summary node of
    ``leaves`` — an element leaf's extent, ``StructureSummaryAccess`` —
    and ``Parent`` hops up to the source's nodes — ``ascend`` of them,
    else as many as the summary says lie between
    (:func:`_summary_hops`).  The chains are united (one row per
    value), or — an exact ``substring`` term — concatenated under the
    ``FirstHit`` that keeps the owners whose first value they hold."""
    ascend, reach = term.range.ascend, {}
    if ascend is None:
        steps = _summary_steps(term.range.leaf_steps)
        reach = {id(node): {id(leaf) for leaf in
                            repository.summary.resolve(steps, node)}
                 for node in repository.resolve_path(
                     leaf_summary_steps(source, ()))}
    first = term.kind == "substring" and term.exact
    owners, chains = None, []
    for leaf in leaves:
        for hops in [ascend] if ascend is not None \
                else _summary_hops(leaf, reach):
            access = StructureSummaryAccess(
                repository, _node_steps(leaf), _hop_column(column, hops)
            ) if leaf.container_path is None else _leaf_access(
                term, repository, leaf.container_path,
                _hop_column(column, hops), f"{column}~value")
            node = _climb(access, repository, column, hops)
            chains.append((leaf.container_path, hops))
            owners = node if owners is None else \
                Concat(owners, node) if first else \
                NodeSet(owners, node, column, "union")
    if owners is None:  # no such path in this document: nobody
        return StructureSummaryAccess(
            repository, leaf_summary_steps(source, term.range.leaf_steps),
            column)
    return FirstHit(owners, repository, chains, column,
                    f"{column}~value") if first else owners


def _node_steps(node) -> list[tuple[str, str]]:
    """The child steps from the root that resolve to summary node
    ``node`` alone."""
    return [("child", step) for step in node.path.split("/")[1:]]


def _compared_owners(term: SelectionTerm, repository, source: PathExpr,
                     column: str) -> ColumnCompare | None:
    """The built ``ColumnCompare`` deciding a ``compare`` term over both
    sides' containers, or ``None`` where the summary names none on a
    side or the data refuse it (:meth:`ColumnCompare.build`)."""
    sides = [[leaf.container_path for leaf in repository.resolve_path(
        leaf_summary_steps(source, side.leaf_steps))]
        for side in (term.range, term.scaled)]
    if any(not paths or None in paths for paths in sides):
        return None
    compare = ColumnCompare(repository, sides[0], term.range.ascend,
                            sides[1], term.scaled.ascend, term.op,
                            term.scale, column)
    return compare if compare.build() else None


def assign_selection(clause: ForClause, plan: SelectionPlan, repo_of):
    """``(SelectionPlan, operator)`` for the clause's constant
    selections ``plan``, else ``None``: the tree the engine runs, the
    Tier-A verifier checks and ``explain`` describes.

    The plan keeps the terms the data can answer: every container
    under a term's leaf path must be ordered the way its constant
    compares (:func:`_order_answers`) — for a ``substring`` term, able
    to index its needle — else the conjunct stays with the per-binding
    check — or, for a step predicate, which has none, nothing is
    assigned.  A blob container answers but is not ``exact``.
    The operator emits the selected nodes of ``$var``, each once, in
    document order: the terms' owners (:func:`_term_owners`) combined
    by :class:`~repro.query.physical.NodeSet` — intersected,
    ``not-exists`` subtracted (from the source's
    ``StructureSummaryAccess`` when nothing else is left).
    """
    repository = repo_of(plan.source.document)
    column = f"${clause.var}"
    required = len(clause.source.steps[-1].predicates)
    terms: list[SelectionTerm] = []
    selected = excluded = None
    for position, term in enumerate(plan.terms):
        if term.kind == "compare":  # a ``where`` conjunct: may refuse
            owners = _compared_owners(term, repository, plan.source,
                                      column)
            if owners is not None:
                terms.append(term)
                selected = owners if selected is None else \
                    NodeSet(selected, owners, column, "intersect")
            continue
        leaves = repository.resolve_path(
            leaf_summary_steps(plan.source, term.range.leaf_steps))
        # An element leaf's extent is the answer: no container.
        paths = [leaf.container_path for leaf in leaves] \
            if not is_element_step(term.range.leaf_steps[-1]) else []
        containers = [] if None in paths else \
            [repository.container(path) for path in paths]
        usable = None not in paths and all(
            c.substring_indexable(term.needle)
            if term.kind == "substring" else
            _order_answers(c, term.range) for c in containers)
        exact = usable and term.exact and \
            not any(c.is_blob for c in containers)
        if position < required and not exact:
            return None
        if not usable:
            continue
        term = term if exact else replace(term, exact=False)
        terms.append(term)
        owners = _term_owners(term, repository, plan.source, leaves,
                              column)
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
                repository, leaf_summary_steps(plan.source, ()), column)
        selected = NodeSet(selected, excluded, column, "difference")
    elif not isinstance(selected, NodeSet):
        selected = NodeSet(selected, None, column)
    return SelectionPlan(plan.source, tuple(terms)), selected


def leaf_summary_steps(source: PathExpr, leaf_steps: tuple[Step, ...]
                       ) -> list[tuple[str, str]]:
    """Structure-summary steps from the document root, through an
    absolute ``source`` path, down a plan's ``leaf_steps`` to the value
    containers."""
    return _summary_steps(source.steps + tuple(leaf_steps))


def _summary_steps(steps: tuple[Step, ...]) -> list[tuple[str, str]]:
    """Structure-summary steps of query steps."""
    return [("child", "@" + s.test) if s.axis == "attribute"
            else (s.axis, TEXT_STEP if s.test == "text()" else s.test)
            for s in steps]


@dataclass(frozen=True)
class ProjectionPlan:
    """A relative path ``path`` below a for-variable read as columns:
    ``steps`` (:func:`_relative_steps`: ``$v/a/b/text()``, ``$v/@x``,
    ``$v/a``, ``$v//item``, ``$v/bidder[1]/increase/text()``) below the
    nodes of ``var``, whose binding for-clause in scope iterates
    ``source`` (:func:`_node_path` of it).  Keyed by the ``path`` node,
    the way a :class:`FlworPlan` is by its FLWOR."""

    path: PathExpr
    var: str
    steps: tuple[Step, ...]
    source: PathExpr

    @cached_property
    def stages(self) -> tuple[tuple[tuple[Step, ...], int | None], ...]:
        """``(steps, k)`` runs of ``steps``, cut around each positional
        step: that step alone, bare, with its ``k`` (the ``k``-th node
        per parent), the runs between with ``None``."""
        stages: list = []
        for step in self.steps:
            k = _position(step)
            if k is not None:
                stages.append(((replace(step, predicates=()),), k))
            elif stages and stages[-1][1] is None:
                stages[-1] = (stages[-1][0] + (step,), None)
            else:
                stages.append(((step,), None))
        return tuple(stages)


class Projection(NamedTuple):
    """A :class:`ProjectionPlan` bound to its document: per element
    stage (the plan's :attr:`~ProjectionPlan.stages`), the summary
    extents it reaches grouped by owner —
    ``SummaryNode.by_owner``, one group per summary node and hop count
    — with its ``k``; for a value path, per leaf container the summary
    names, its records grouped by owner — the rows of ``ContScan →
    Parent^k``, read off ``ContainerArrays.by_owner`` — with its codec
    and value type (``leaves`` ``None`` for an element path).
    ``reads``: per stage, the summary paths it reads."""

    plan: ProjectionPlan
    stages: tuple[tuple[tuple[dict, ...], int | None], ...]
    leaves: tuple[tuple[dict, object, str], ...] | None
    reads: tuple[tuple[str, ...], ...]

    def values(self, node_id: int) -> list:
        """The path's nodes or compressed values below node
        ``node_id``, in document order, each once."""
        ids = [node_id]
        for groups, k in self.stages:
            ids = _members(groups, ids, k)
        leaves = self.leaves
        if leaves is None:
            document = self.plan.source.document
            return [NodeItem(i, document) for i in ids]
        if len(leaves) == 1 and len(ids) == 1:
            ((groups, codec, value_type),) = leaves
            return [CompressedItem(record.compressed, codec, value_type)
                    for record in groups.get(ids[0], ())]
        # By the element owning each value; a value below two nested
        # owners once.
        found = {id(record): (record, codec, value_type) for i in ids
                 for groups, codec, value_type in leaves
                 for record in groups.get(i, ())}
        return [CompressedItem(record.compressed, codec, value_type)
                for record, codec, value_type in sorted(
                    found.values(), key=lambda hit: hit[0].parent_id)]

    def size(self, node_id: int) -> int:
        """``len(self.values(node_id))``, read off the group sizes where
        the path is one element stage."""
        if self.leaves is None and len(self.stages) == 1 and \
                self.stages[0][1] is None:
            return sum(len(group.get(node_id, ()))
                       for group in self.stages[0][0])
        return len(self.values(node_id))


def _members(groups: tuple[dict, ...], owners: list[int],
             k: int | None) -> list[int]:
    """The node ids ``groups`` hold below each of ``owners`` (the
    ``k``-th of an owner's only, if ``k``), in document order, each
    once.  An owner's hits are disjoint — each is one summary node's
    extent at one hop count — so only two owners can share a node."""
    found: list[int] = []
    for owner in owners:
        hits = [group[owner] for group in groups if owner in group]
        members = hits[0] if len(hits) == 1 else sorted(
            i for hit in hits for i in hit)
        found += members if k is None else members[k - 1:k]
    return found if len(owners) < 2 else sorted(set(found))


def assign_projection(plan: ProjectionPlan, repo_of) -> Projection | None:
    """The bound projection the engine looks a binding's nodes or
    values up in, else ``None``: then the path is navigated per
    binding.

    Each stage resolves its steps on the summary from the nodes the
    previous one reached (the source's first), and groups what they
    reach by owner, the hop counts read off the summary
    (:func:`_summary_hops`: an element nested in itself has an owner
    per nesting).  Refused, from the data, where a leaf container is a
    blob (no record slots) or holds two values of one element (mixed
    content: slot order is not their document order).  A path the
    summary lacks projects to empty."""
    repository = repo_of(plan.source.document)
    parents = repository.structure.parents
    nodes = repository.resolve_path(_summary_steps(plan.source.steps))
    stages, leaves, reads = [], None, []
    for steps, k in plan.stages:
        reach = {id(node): repository.summary.resolve(
            _summary_steps(steps), node) for node in nodes}
        nodes = list({id(target): target for targets in reach.values()
                      for target in targets}.values())
        reads.append(tuple(node.path for node in nodes))
        if any(step.axis == "descendant" for step in steps):
            reached = {key: set(map(id, targets))
                       for key, targets in reach.items()}
            pairs = [(node, hops) for node in nodes
                     for hops in _summary_hops(node, reached)]
        else:  # a child chain: one owner, a fixed climb
            pairs = [(node, parent_hops(steps)) for node in nodes]
        if is_element_step(steps[-1]):
            stages.append((tuple(node.by_owner(hops, parents)
                                 for node, hops in pairs), k))
            continue
        if any(node.container_path is None for node in nodes):
            return None
        containers = [(repository.container(node.container_path), hops)
                      for node, hops in pairs]
        if any(c.is_blob or not c.as_arrays().one_per_parent
               for c, _ in containers):
            return None
        leaves = tuple((c.as_arrays().by_owner(hops, parents), c.codec,
                        c.value_type) for c, hops in containers)
    return Projection(plan, tuple(stages), leaves, tuple(reads))


def _projection_plan(expr: Expression, scope: dict[str, PathExpr | None]
                     ) -> ProjectionPlan | None:
    """``expr`` as a projection: a path :func:`_relative_steps` accepts
    from a variable a for-clause in ``scope`` binds over a
    summary-resolvable source."""
    if not isinstance(expr, PathExpr) or \
            not isinstance(expr.start, VarRef):
        return None
    var = expr.start.name
    steps = _relative_steps(expr, var)
    source = scope.get(var)
    if steps is None or source is None:
        return None
    return ProjectionPlan(expr, var, steps, source)


def context_free(expr: Expression) -> bool:
    """True when the expression never touches the context item."""
    return not isinstance(expr, ContextItem) and \
        all(map(context_free, _children(expr)))


@dataclass(frozen=True)
class ClausePlan:
    """How one for/let clause of a FLWOR is evaluated.

    ``decidable``: the ``where`` conjuncts whose variables are all
    bound once this clause's is, and by no later clause of the FLWOR.
    A source that is ``independent`` (of every variable bound so far)
    and ``context_free`` is evaluated once per execution.  The strategy
    is the first candidate present of ``join`` (an equality against
    bound variables; only over an ``independent`` source, and nothing
    below it is kept), ``thetas`` (inequalities against them),
    ``selection`` (constant terms); else every binding of the source
    checks every ``decidable`` conjunct.  The later candidates are what
    the engine falls back to when the data refuse an earlier one.
    """

    clause: ForClause | LetClause
    decidable: tuple[Expression, ...] = ()
    independent: bool = False
    context_free: bool = False
    join: JoinPlan | None = None
    thetas: tuple[ThetaPlan, ...] = ()
    selection: SelectionPlan | None = None

    @property
    def strategy(self):
        return self.join or next(iter(self.thetas), None) or \
            self.selection

    def rest(self, chosen) -> tuple[Expression, ...]:
        """``decidable`` less what the bound strategy ``chosen``
        decides: a join's conjunct (a theta join asks per binding),
        a selection's exact terms."""
        if not isinstance(chosen, SelectionPlan):
            return tuple(c for c in self.decidable
                         if c is not chosen.conjunct)
        decided = [t.conjunct for t in chosen.terms if t.exact]
        return tuple(c for c in self.decidable
                     if not any(c is d for d in decided))


@dataclass(frozen=True)
class FlworPlan:
    """A FLWOR's clauses in order, the ``where`` conjuncts no
    for-clause decides (checked after the last one) and, where its
    for-clauses' strategies decide every binding, its
    :class:`RowPlan`."""

    flwor: FLWOR
    clauses: tuple[ClausePlan, ...]
    residual: tuple[Expression, ...]
    rows: RowPlan | None = None


class RowPlan(NamedTuple):
    """A FLWOR run as columns (Arion et al.'s path partitions: each
    for-variable one column of owner ids), with no per-binding
    recursion: the first for-clause's selection or summary ids, each
    join clause's matches per row, each theta clause's probe range per
    row; a ``count`` read off group sizes; the return read per row, a
    constructor written from one template.

    ``fors``: the for-clauses' plans, in order — each an independent
    summary-resolved source with no conjunct, or a join, theta or
    selection strategy leaving nothing to check per binding.  ``lets``:
    ``(key, counted, source)`` after them — read only by
    ``count($key)`` (``counted``; the source a ``path`` row expression
    or a :attr:`countable` plan), or only as constructor content (the
    source a plan that writes); an inline ``count(FLWOR)`` is a counted
    let with an integer key.  ``result``: the return as a row
    expression, a tagged tuple — ``("node", var, doc)``, ``("path",
    path)``, ``("count", source)`` (source a ``path`` expression or a
    ``("let", key)``), ``("literal", value)``, ``("let", key)`` (content
    only) or ``("element", name, attributes, content)``, whose
    attribute parts and content are text or row expressions.
    ``outer``: the enclosing for-variables read, columns taken from the
    run's bindings; ``docs``: each for-variable's document.
    """

    fors: tuple[ClausePlan, ...]
    lets: tuple[tuple, ...]
    result: tuple
    outer: tuple[str, ...]
    docs: tuple[tuple[str, str | None], ...]

    @property
    def countable(self) -> bool:
        """Its item count per row is a group size: one item per row,
        or a projected path's group, and nothing else to evaluate."""
        return not self.lets and self.result[0] in ("node", "path",
                                                    "literal")


@dataclass(frozen=True)
class QueryPlan:
    """Every FLWOR the evaluator can reach, outermost first, and the
    relative value paths read as projections: a value (equal queries
    plan equal) shared across sessions and threads."""

    flwors: tuple[FlworPlan, ...]
    projections: tuple[ProjectionPlan, ...]

    def by_node(self) -> dict[int, FlworPlan | ProjectionPlan]:
        """The FLWOR and projection plans by ``id()`` of their FLWOR or
        path node (the plan keeps the nodes alive): how a walk of the
        planned AST finds the plan of the node it stands on."""
        return {**{id(plan.flwor): plan for plan in self.flwors},
                **{id(plan.path): plan for plan in self.projections}}


def plan_query(ast: Expression) -> QueryPlan:
    """Plan every FLWOR of a parsed query, once.

    Variables in scope are the enclosing for/let variables plus the
    query's free variables — external bindings, bound before anything
    runs."""
    flwors: list = []
    projections: list[ProjectionPlan] = []
    _plan(ast, dict.fromkeys(free_vars(ast)), flwors, projections, {},
          True)
    return QueryPlan(tuple(flwors), tuple(projections))


def _plan(expr: Expression, scope: dict[str, PathExpr | None],
          flwors: list, projections: list[ProjectionPlan],
          scopes: dict, sink: bool = False) -> None:
    """``scope`` maps every variable in scope, lexically, to
    :func:`_node_path` of the for-clause binding it (``None`` for a
    let or an external binding); ``scopes`` collects, per FLWOR, the
    scopes before and after its clauses.  ``sink``: ``expr``'s items
    are the query's result items — only there may a :class:`RowPlan`
    write its constructors (nothing navigates or atomizes them)."""
    if not isinstance(expr, FLWOR):
        projection = _projection_plan(expr, scope)
        if projection is not None:
            projections.append(projection)
        sink = sink and isinstance(expr, SequenceExpr)
        for child in _children(expr):
            _plan(child, scope, flwors, projections, scopes, sink)
        return
    outer = scope
    slot = len(flwors)
    flwors.append(None)  # outermost first
    pending = flatten_conjuncts(expr.where)
    clauses = []
    for position, clause in enumerate(expr.clauses):
        planned = ClausePlan(clause)
        if isinstance(clause, ForClause):
            # ``where`` sees the last binding of each name.
            rebound = {c.var for c in expr.clauses[position + 1:]}
            planned, pending = _plan_clause(clause, pending, scope,
                                            rebound)
        _plan(clause.source, scope, flwors, projections, scopes)
        clauses.append(planned)
        scope = {**scope, clause.var: _node_path(clause.source)
                 if isinstance(clause, ForClause) else None}
    *rest, result = _children(expr)[len(expr.clauses):]
    for child in rest:
        _plan(child, scope, flwors, projections, scopes)
    _plan(result, scope, flwors, projections, scopes, sink)
    clauses, pending = tuple(clauses), tuple(pending)
    scopes[id(expr)] = outer, scope
    flwors[slot] = FlworPlan(expr, clauses, pending, _row_plan(
        expr, clauses, pending, sink, flwors, scopes))


def _row_plan(expr: FLWOR, clauses: tuple[ClausePlan, ...],
              residual: tuple, writes: bool, flwors: list, scopes: dict
              ) -> RowPlan | None:
    """The FLWOR ``expr`` planned as ``clauses`` and ``residual``, as a
    :class:`RowPlan` (constructors written only if ``writes``), else
    ``None``: an ``order by``, a residual conjunct, a clause that
    checks a conjunct per binding, a rebound name, a let before a
    for-clause or read otherwise than its kind, or a return that is no
    row expression keeps the per-binding path."""
    scope, inner = scopes[id(expr)]
    # Every name new and bound once: each added one scope entry.
    if expr.order or residual or \
            len(inner) != len(scope) + len(clauses):
        return None
    fors: list[ClausePlan] = []
    docs: list[tuple] = []
    for step in clauses:
        if not isinstance(step.clause, ForClause):
            break
        if not _row_clause(step, inner):
            return None
        fors.append(step)
        docs.append((step.clause.var, inner[step.clause.var].document))
    if not fors or any(isinstance(step.clause, ForClause)
                       for step in clauses[len(fors):]):
        return None
    # Outermost, nothing is in scope to read (an unbound name stays
    # unbound in the clause or expression that refuses it).
    outer = tuple(sorted(free_vars(expr))) if scope else ()
    for var in outer:
        if scope.get(var) is None:
            return None
        docs.append((var, scope[var].document))
    lets: list[tuple] = []
    for step in clauses[len(fors):]:
        var, source = step.clause.var, step.clause.source
        reads = _reads(expr.result, var)
        if reads == {"count"}:
            found = _count_source(source, inner, flwors)
        elif reads == {"content"} and isinstance(source, FLWOR):
            nested = _planned(flwors, source)
            found = _row_plan(source, nested.clauses, nested.residual,
                              True, flwors, scopes)
        else:
            return None
        if found is None:
            return None
        lets.append((var, reads == {"count"}, found))
    kinds = {key: counted for key, counted, _ in lets} if lets else {}
    result = _row_expr(expr.result, inner, kinds, writes, flwors, lets)
    if result is None:
        return None
    return RowPlan(tuple(fors), tuple(lets), result, outer, tuple(docs))


def _planned(flwors: list, expr: FLWOR) -> FlworPlan:
    """The plan of a FLWOR nested in the one being planned."""
    return next(plan for plan in flwors
                if plan is not None and plan.flwor is expr)


def _row_clause(step: ClausePlan, scope: dict[str, PathExpr | None]
                ) -> bool:
    """Does the clause's strategy decide its bindings whole?  A
    selection's exact terms are the data's to say (bind)."""
    strategy = step.strategy
    if strategy is None:
        source = step.clause.source
        return step.independent and step.context_free and \
            not step.decidable and is_absolute_simple_path(source) and \
            bool(source.steps)
    if isinstance(strategy, JoinPlan):
        return strategy.probe_source is not None and \
            not step.rest(strategy)
    if isinstance(strategy, ThetaPlan):
        # A bare key path faces a probe of text, which never orders
        # numerically: every row would fall back.
        return strategy.scale is not None and not step.rest(strategy) \
            and _var_path(strategy.probe_expr, scope)
    return True


def _var_path(expr: Expression, scope: dict[str, PathExpr | None]
              ) -> bool:
    """A path from a for-variable: a projection, unless
    :func:`_relative_steps` refuses it — then it binds none, and
    :func:`_bind_rows` refuses the plan."""
    return isinstance(expr, PathExpr) and \
        isinstance(expr.start, VarRef) and \
        scope.get(expr.start.name) is not None


def _reads(expr: Expression, var: str, context: str = "other"
           ) -> set[str]:
    """How ``expr`` reads ``$var``: ``count`` (as ``count($var)``),
    ``content`` (as constructor content), ``other``."""
    if expr == VarRef(var):
        return {context}
    if isinstance(expr, FunctionCall) and expr.name == "count" and \
            len(expr.args) == 1:
        return _reads(expr.args[0], var, "count")
    if isinstance(expr, ElementConstructor):
        return set().union(
            *(_reads(p, var) for _, parts in expr.attributes
              for p in parts),
            *(_reads(c, var, "content") for c in expr.content))
    return set().union(*(_reads(c, var) for c in _children(expr)))


def _count_source(expr: Expression, scope: dict[str, PathExpr | None],
                  flwors: list):
    """A counted expression as a ``path`` row expression or a
    countable :class:`RowPlan`, else ``None``."""
    if isinstance(expr, PathExpr):
        return ("path", expr) if _var_path(expr, scope) else None
    rows = _planned(flwors, expr).rows if isinstance(expr, FLWOR) \
        else None
    return rows if rows is not None and rows.countable else None


def _row_expr(expr: Expression, scope: dict[str, PathExpr | None],
              lets: dict, writes: bool, flwors: list,
              counted: list, content: bool = False) -> tuple | None:
    """``expr`` as a row expression (:class:`RowPlan`) over the for-
    and let-variables of ``scope`` and ``lets`` (key -> counted), else
    ``None``; an inline ``count(FLWOR)`` joins ``counted`` as a let."""
    if isinstance(expr, VarRef):
        if content and lets.get(expr.name) is False:
            return ("let", expr.name)
        path = scope.get(expr.name)
        return None if path is None else ("node", expr.name, path.document)
    if isinstance(expr, PathExpr):
        return ("path", expr) if _var_path(expr, scope) else None
    if isinstance(expr, (StringLiteral, NumberLiteral)):
        return ("literal", expr.value)
    if isinstance(expr, FunctionCall) and expr.name == "count" and \
            len(expr.args) == 1:
        (arg,) = expr.args
        if isinstance(arg, VarRef):
            return ("count", ("let", arg.name)) if lets.get(arg.name) \
                else None
        source = _count_source(arg, scope, flwors)
        if isinstance(source, RowPlan):
            counted.append((len(counted), True, source))
            source = ("let", counted[-1][0])
        return None if source is None else ("count", source)
    if not isinstance(expr, ElementConstructor) or not writes or \
            len({name for name, _ in expr.attributes}) < \
            len(expr.attributes):  # the DOM keeps a name's last value
        return None
    found: list = []
    for name, parts in expr.attributes:
        found.append((name, tuple(
            part.value if isinstance(part, TextLiteral) else
            None if isinstance(part, ElementConstructor) else
            _row_expr(part, scope, lets, writes, flwors, counted)
            for part in parts)))
    body = tuple(part.value if isinstance(part, TextLiteral) else
                 _row_expr(part, scope, lets, writes, flwors, counted,
                           True) for part in expr.content)
    if None in body or any(None in parts for _, parts in found):
        return None
    return ("element", expr.name, tuple(found), body)


def _plan_clause(clause: ForClause, pending: list[Expression],
                 scope: dict[str, PathExpr | None], rebound: set[str]
                 ) -> tuple[ClausePlan, list[Expression]]:
    """Classify a for-clause: its plan, and the conjuncts of
    ``pending`` not decidable here — some variable unbound, or bound
    again by a later clause (``rebound``)."""
    bound = frozenset(scope)
    now_bound = bound | {clause.var}
    decidable: list[Expression] = []
    later: list[Expression] = []
    for conjunct in pending:
        names = free_vars(conjunct)
        (decidable if names <= now_bound and not names & rebound
         else later).append(conjunct)

    def found(find, *args) -> tuple:
        plans = (find(c, clause.var, *args) for c in decidable)
        return tuple(p for p in plans if p is not None)

    independent = not free_vars(clause.source) & bound
    joins = found(find_join_plan, bound) if independent else ()
    # Positional joins need the summary to resolve the source; the
    # selection strips last-step predicates itself.
    simple = not joins and is_absolute_simple_path(clause.source)
    return ClausePlan(
        clause, tuple(decidable), independent,
        context_free(clause.source),
        _with_key_paths(joins[0], clause, scope) if joins else None,
        thetas=found(find_theta_plan, bound) if simple else (),
        selection=None if joins else
        find_selection_plan(clause, decidable)), later


class BoundClause(NamedTuple):
    """A for-clause's ``(plan, operator)`` pairs, ``None`` where the plan
    has none or the data refuse it.  A run takes the first present; a
    binding whose theta probe is no number falls back to the selection,
    then to the per-binding check."""

    join: tuple | None
    theta: tuple | None
    selection: tuple | None

    def operators(self) -> list[Operator]:
        """The bound operators, in the order a run tries them."""
        return [pair[1] for pair in self if pair is not None]


class RowClause(NamedTuple):
    """A :class:`RowPlan` for-clause bound: ``kind`` ``source`` (its
    summary ids), ``selection``, ``join`` or ``theta`` with the bound
    ``(plan, operator)`` pair; ``probe``: a join's probe column, a
    theta join's probe :class:`Projection`."""

    step: ClausePlan
    kind: str
    bound: tuple | None = None
    probe: str | Projection | None = None


class Template(NamedTuple):
    """A constructor compiled once per plan: ``head`` — the escaped
    start tag's markup and attribute slots — then ``content`` — escaped
    text, slots and nested templates — then ``close``.  ``filled``: the
    content has literal text or an element, so the element is never
    written empty (``<a/>``).  A slot is a bound row expression
    (:func:`_bind_expr`)."""

    head: tuple
    content: tuple
    close: str
    filled: bool


class BoundRows(NamedTuple):
    """A :class:`RowPlan` bound: its clauses, its lets' bound sources
    (a nested :class:`BoundRows` or a ``path`` slot) and its return,
    compiled; no operator of its own."""

    plan: RowPlan
    clauses: tuple[RowClause, ...]
    lets: tuple[tuple, ...]
    result: tuple


class BoundPlan(NamedTuple):
    """A :class:`QueryPlan` bound to repositories, once: what every run
    executes — per :class:`ClausePlan` its :class:`BoundClause`, per
    path node its :class:`Projection` (``None``: navigate) or the
    ``StructureSummaryAccess`` of its summary prefix, per FLWOR its
    :class:`BoundRows` (``None``: per binding), all by ``id`` — and,
    the same objects, what the Tier-A verifier checks
    (:meth:`operators`).  ``repositories``: each document name bound,
    to its repository.  Read-only after binding, so runs and threads
    share it."""

    clauses: dict[int, BoundClause]
    projections: dict[int, Projection | None]
    paths: dict[int, StructureSummaryAccess | None]
    repositories: dict
    rows: dict[int, BoundRows | None]

    def operators(self) -> list[Operator]:
        """Every bound operator tree, each once: the clauses' and the
        absolute paths' summary accesses."""
        return [operator for bound in self.clauses.values()
                for operator in bound.operators()] + \
            [access for access in self.paths.values()
             if access is not None]


def bind_plan(ast: Expression, plan: QueryPlan, repo_of) -> BoundPlan:
    """Bind ``plan``, the plan of ``ast``, to the repositories
    ``repo_of`` names: every for-clause's strategies, every absolute
    path's summary prefix and every projection."""
    repositories: dict = {}

    def bound_repo(doc):
        repositories[doc] = repo_of(doc)
        return repositories[doc]

    clauses = {id(step): BoundClause(
        assign_equi_join(step.clause, step.join, bound_repo)
        if step.join else None,
        assign_theta_join(step.clause, step.thetas, bound_repo)
        if step.thetas else None,
        assign_selection(step.clause, step.selection, bound_repo)
        if step.selection else None)
        for flwor in plan.flwors for step in flwor.clauses
        if isinstance(step.clause, ForClause)}
    paths = {id(path): _summary_access(path, bound_repo)
             for path in _absolute_paths(ast)}
    projections = {id(p.path): assign_projection(p, bound_repo)
                   for p in plan.projections}
    rows = {id(flwor.flwor): _bind_rows(flwor.rows, clauses, projections)
            for flwor in plan.flwors if flwor.rows is not None}
    return BoundPlan(clauses, projections, paths, repositories, rows)


def _bind_rows(plan: RowPlan, clauses: dict[int, BoundClause],
               projections: dict[int, Projection | None]
               ) -> BoundRows | None:
    """``plan`` over its clauses' bound strategies — the one a run
    takes, as :meth:`BoundClause.operators` orders them — and its
    projections, its constructors compiled; ``None`` where the data
    refuse a strategy, leave a conjunct to check per binding or refuse
    a projection."""
    bound = []
    for step in plan.fors:
        pairs = clauses[id(step)]
        chosen = next(filter(None, pairs), None)
        if chosen is None:
            if step.strategy is not None:
                return None
            bound.append(RowClause(step, "source"))
        elif step.rest(chosen[0]):
            return None
        elif chosen is pairs.join:
            bound.append(RowClause(step, "join", chosen,
                                   chosen[0].probe_vars[0]))
        elif chosen is pairs.theta:
            probe = projections.get(id(chosen[0].probe_expr))
            if probe is None:
                return None
            bound.append(RowClause(step, "theta", chosen, probe))
        else:
            bound.append(RowClause(step, "selection", chosen))
    lets = []
    for key, counted, source in plan.lets:
        source = _bind_rows(source, clauses, projections) \
            if isinstance(source, RowPlan) else \
            _bind_expr(source, projections)
        if source is None:
            return None
        lets.append((key, counted, source))
    result = _bind_expr(plan.result, projections)
    return None if result is None else \
        BoundRows(plan, tuple(bound), tuple(lets), result)


def _bind_expr(expr: tuple, projections: dict[int, Projection | None]):
    """A row expression bound: ``("path", var, Projection)``, a count
    of one or of a ``("let", key)``, a :class:`Template`; the others as
    planned.  ``None`` where a projection is refused."""
    kind = expr[0]
    if kind == "path":
        projection = projections.get(id(expr[1]))
        return None if projection is None else \
            ("path", projection.plan.var, projection)
    if kind == "count":
        source = expr[1] if expr[1][0] == "let" else \
            _bind_expr(expr[1], projections)
        return None if source is None else ("count", source)
    if kind != "element":
        return expr
    _, name, attributes, content = expr
    head: list = [f"<{name}"]
    for attribute, parts in attributes:
        head.append(f' {attribute}="')
        for part in parts:
            head.append(escape_attribute(part) if isinstance(part, str)
                        else _bind_expr(part, projections))
        head.append('"')
    body = [escape_text(part) if isinstance(part, str)
            else _bind_expr(part, projections) for part in content]
    if None in head or None in body:
        return None
    filled = any(part.__class__ is str or part.__class__ is Template
                 for part in body)
    return Template(_merged(head), _merged(body), f"</{name}>", filled)


def _merged(parts: list) -> tuple:
    """``parts`` with each run of adjacent strings joined."""
    merged: list = []
    for part in parts:
        if part.__class__ is str and merged and \
                merged[-1].__class__ is str:
            merged[-1] += part
        else:
            merged.append(part)
    return tuple(merged)


def _absolute_paths(expr: Expression):
    """Every absolute path the evaluator can reach from ``expr``."""
    if isinstance(expr, PathExpr) and expr.start is None:
        yield expr
    for child in _children(expr):
        yield from _absolute_paths(child)


def _summary_access(path: PathExpr, repo_of
                    ) -> StructureSummaryAccess | None:
    """The ``StructureSummaryAccess`` of the longest prefix of absolute
    ``path`` the summary answers (Figure 4) — element steps, up to and
    including the first with predicates — built once per plan.
    ``None``: no prefix."""
    prefix: list[tuple[str, str]] = []
    for step in path.steps:
        if step.axis not in ("child", "descendant") or \
                step.test == "text()":
            break
        prefix.append((step.axis, step.test))
        if step.predicates:
            break
    return StructureSummaryAccess(repo_of(path.document), prefix,
                                  "$path") if prefix else None
