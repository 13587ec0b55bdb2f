"""Query planning: one walk decides how every FLWOR is evaluated.

The full cost-based optimizer is ongoing work in the paper (§5 notes the
measured plans do not use it); what this module provides are the §4
evaluation strategies, chosen **once per query**:

* :func:`plan_query` walks a parsed query with the variables actually
  in scope and returns a frozen :class:`QueryPlan`: per FLWOR, per
  clause, the ``where`` conjuncts that become decidable there and the
  strategy they select (:class:`ClausePlan` holds the precedence).  The
  engine executes that plan, ``explain`` renders it, the plan cache
  keeps it — nobody else classifies a conjunct;
* :func:`bind_plan` binds a plan to repositories and returns the
  operator trees the Tier-A verifier checks.  Constant selections
  (:func:`assign_selection`: ``ContAccess`` interval searches on the
  sorted containers, ``ContSubstring`` candidates for ``contains``,
  ``Parent`` steps back up — bottom-up evaluation), equality joins
  (:func:`assign_equi_join`: one ``MergeJoin`` over the two
  value-sorted key containers) and inequality joins
  (:func:`assign_theta_join`) are the very trees the engine runs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import itemgetter

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
    VarRef,
)
from repro.query.functions import tokenize
from repro.query.physical import (Concat, ContAccess, ContScan,
                                  ContSubstring, Decompress, MergeJoin,
                                  NestedLoopJoin, NodeSet, OpaqueSource,
                                  Operator, Parent, Sort,
                                  StructureSummaryAccess, ThetaJoin,
                                  XMLSerialize)
from repro.storage.summary import TEXT_STEP


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
                             _ascend(steps), tuple(sorted(probe_vars)))
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
                high_inclusive, _ascend(steps),
                "number" if isinstance(const_side, NumberLiteral)
                else "string")
    return None


@dataclass(frozen=True)
class SelectionTerm:
    """One conjunct decided on the containers ``range.leaf_steps``
    reach, as a set of the clause variable's nodes: ``interval`` — the
    owners (``range.ascend`` ``Parent`` hops up) of the values inside
    ``range``'s bounds; ``exists`` — the owners of any value;
    ``not-exists`` — the source nodes owning none; ``substring`` — every
    source node above a value that may contain ``needle``.

    ``exact``: the access path *is* the reference comparison, so the
    conjunct is not re-checked per binding.  ``assign_selection``
    clears it, from the data, for blob containers; a ``substring`` term
    never is — ``contains`` reads the first item of its sequence only,
    ``word-contains`` wants whole words, the candidates are a superset.
    """

    conjunct: Expression
    kind: str
    range: RangePlan
    exact: bool = True
    needle: str | None = None


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
    ``not(empty($v/leaf))`` or — in a ``where``, which re-checks —
    ``contains`` / ``word-contains($v/leaf, "literal")`` as a term;
    anything else is ``None``."""
    plan = find_range_plan(conjunct, clause_var)
    if plan is not None:
        return SelectionTerm(conjunct, "interval", plan)
    if clause_var is not None and isinstance(conjunct, FunctionCall) \
            and conjunct.name in ("contains", "word-contains") \
            and len(conjunct.args) == 2 \
            and isinstance(conjunct.args[1], StringLiteral):
        steps = _simple_value_steps(conjunct.args[0], clause_var,
                                    descendants=True)
        # Every word must be in the value: the longest selects best.
        needle = conjunct.args[1].value if conjunct.name == "contains" \
            else max(tokenize(conjunct.args[1].value), key=len,
                     default="")
        return None if steps is None or not needle else SelectionTerm(
            conjunct, "substring",
            RangePlan(steps, None, None, True, True, ascend=None),
            exact=False, needle=needle)
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


def _ascend(steps: tuple[Step, ...]) -> int:
    """``Parent`` hops from a value's owning element back up to the
    clause variable's node: one per element step."""
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
                      repo_of, left=None, stats=None):
    """``(ThetaPlan, ThetaJoin)`` for the first of the clause's theta
    candidates whose key path ends at numeric-ordered containers, else
    ``None``: the assignment the engine runs and the Tier-A verifier
    checks.

    The clause's source is an absolute simple path (``plan_query``
    keeps no candidate otherwise); ``repo_of`` maps its document name
    to a repository.  The operator is returned unbuilt.
    """
    repository = repo_of(clause.source.document)
    for plan in plans:
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


def assign_equi_join(clause: ForClause, plan: JoinPlan, repo_of,
                     stats=None):
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
                         f"${var}", stats)
             for source, steps, var in (
                 (plan.probe_source, plan.probe_steps, probe_var),
                 (clause.source, plan.build_steps, clause.var))]
    if None in sides:
        return None
    (probe, probe_key), (build, build_key) = sides
    return plan, MergeJoin(probe, build, None, None,
                           left_column=probe_key, right_column=build_key)


def _key_stream(repository, source: PathExpr, steps: tuple[Step, ...],
                column: str, stats):
    """``(operator, key column)``: every value ``steps`` reach below the
    nodes of ``source``, decoded, beside its owner in ``column``, in
    value order — ``ContScan → Parent^ascend → Decompress`` on each
    key container the summary names, several concatenated and then
    ``Sort``-ed.  ``None`` unless the summary names a key container
    and each is a string-typed record container: slot order is then
    the string order the reference compares by, and decoded keys
    compare across two sides trained on different source models."""
    leaves = repository.resolve_path(leaf_summary_steps(source, steps))
    if stats is not None:
        stats.summary_accesses += 1
    paths = [leaf.container_path for leaf in leaves]
    if not paths or None in paths:
        return None
    if any(c.is_blob or c.value_type != "string"
           for c in map(repository.container, paths)):
        return None
    key, hops = f"{column}~key", _ascend(steps)
    stream = None
    for path in paths:
        node = _climb(ContScan(repository, path, _hop_column(column, hops),
                               key, stats), repository, column, hops, stats)
        stream = node if stream is None else Concat(stream, node)
    stream = Decompress(stream, [key], stats)
    if len(paths) > 1:
        stream = Sort(stream, itemgetter(key), columns=(key,))
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
                 id_column: str, value_column: str, stats) -> Operator:
    """The container operator of a term's kind: ``ContAccess``
    (interval), ``ContSubstring`` or — existence — ``ContScan``."""
    if term.kind == "interval":
        bounds = term.range
        return ContAccess(repository, path, id_column, value_column,
                          bounds.low, bounds.high, bounds.low_inclusive,
                          bounds.high_inclusive, stats=stats)
    if term.kind == "substring":
        return ContSubstring(repository, path, id_column, value_column,
                             term.needle, stats)
    return ContScan(repository, path, id_column, value_column, stats)


def _hop_column(column: str, hop: int) -> str:
    """The column of the nodes ``hop`` ``Parent`` steps below
    ``column``'s."""
    return f"{column}~up{hop}" if hop else column


def _climb(node: Operator, repository, column: str, hops: int,
           stats) -> Operator:
    """``node`` and ``hops`` ``Parent`` steps from its
    ``_hop_column(column, hops)`` up to ``column``."""
    for hop in range(hops, 0, -1):
        node = Parent(node, repository, _hop_column(column, hop),
                      _hop_column(column, hop - 1), stats)
    return node


def _summary_hops(leaf, sources) -> list[int]:
    """``Parent`` hops from the element owning ``leaf``'s values up to
    each of the summary nodes ``sources`` above it: several when a
    source element nests inside itself."""
    found, hops, node = [], 0, leaf.parent
    while node is not None:
        if node in sources:
            found.append(hops)
        node, hops = node.parent, hops + 1
    return found


def _term_owners(term: SelectionTerm, repository, source: PathExpr,
                 leaves, column: str, stats):
    """The owners of a term's values as an operator emitting ``column``
    (one row per value): :func:`_leaf_access` on the container of every
    summary node of ``leaves`` and ``Parent`` hops up to the source's
    nodes — ``ascend`` of them, else as many as the summary says lie
    between (:func:`_summary_hops`); the chains united."""
    ascend, sources = term.range.ascend, ()
    if ascend is None:
        sources = repository.resolve_path(leaf_summary_steps(source, ()))
        if stats is not None:
            stats.summary_accesses += 1
    owners = None
    for leaf in leaves:
        for hops in [ascend] if ascend is not None \
                else _summary_hops(leaf, sources):
            node = _climb(_leaf_access(
                term, repository, leaf.container_path,
                _hop_column(column, hops), f"{column}~value", stats),
                repository, column, hops, stats)
            owners = node if owners is None else \
                NodeSet(owners, node, column, "union")
    if owners is None:  # no such path in this document: nobody
        owners = StructureSummaryAccess(
            repository, leaf_summary_steps(source, term.range.leaf_steps),
            column, stats)
    return owners


def assign_selection(clause: ForClause, plan: SelectionPlan, repo_of,
                     stats=None):
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
        leaves = repository.resolve_path(
            leaf_summary_steps(plan.source, term.range.leaf_steps))
        if stats is not None:
            stats.summary_accesses += 1
        paths = [leaf.container_path for leaf in leaves]
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
        terms.append(term if exact else replace(term, exact=False))
        owners = _term_owners(term, repository, plan.source, leaves,
                              column, stats)
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

    def rest(self, conjunct: Expression) -> tuple[Expression, ...]:
        """``decidable`` less the conjunct a join already decided."""
        return tuple(c for c in self.decidable if c is not conjunct)

    def bind_join(self, repo_of, stats=None):
        return assign_equi_join(self.clause, self.join, repo_of,
                                stats) if self.join else None

    def bind_theta(self, repo_of, left=None, stats=None):
        return assign_theta_join(self.clause, self.thetas, repo_of, left,
                                 stats) if self.thetas else None

    def bind_selection(self, repo_of, stats=None):
        return assign_selection(self.clause, self.selection, repo_of,
                                stats) if self.selection else None


@dataclass(frozen=True)
class FlworPlan:
    """A FLWOR's clauses in order, and the ``where`` conjuncts no
    for-clause decides (checked after the last one)."""

    flwor: FLWOR
    clauses: tuple[ClausePlan, ...]
    residual: tuple[Expression, ...]


@dataclass(frozen=True)
class QueryPlan:
    """Every FLWOR the evaluator can reach, outermost first, and the
    absolute simple paths that are no for-clause's access path: a value
    (equal queries plan equal) shared across sessions and threads."""

    flwors: tuple[FlworPlan, ...]
    paths: tuple[PathExpr, ...]

    def by_node(self) -> dict[int, FlworPlan]:
        """The FLWOR plans by ``id()`` of their FLWOR node (the plan
        keeps the nodes alive): how a walk of the planned AST finds
        the plan of the FLWOR it stands on."""
        return {id(plan.flwor): plan for plan in self.flwors}


def plan_query(ast: Expression) -> QueryPlan:
    """Plan every FLWOR of a parsed query, once.

    Variables in scope are the enclosing for/let variables plus the
    query's free variables — external bindings, bound before anything
    runs."""
    flwors: list = []
    paths: list[PathExpr] = []
    _plan(ast, dict.fromkeys(free_vars(ast)), flwors, paths)
    return QueryPlan(tuple(flwors), tuple(paths))


def _plan(expr: Expression, scope: dict[str, PathExpr | None],
          flwors: list, paths: list[PathExpr]) -> None:
    """``scope`` maps every variable in scope, lexically, to
    :func:`_node_path` of the for-clause binding it (``None`` for a
    let or an external binding)."""
    if not isinstance(expr, FLWOR):
        if is_absolute_simple_path(expr) and expr.steps:
            paths.append(expr)
        for child in _children(expr):
            _plan(child, scope, flwors, paths)
        return
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
        # A for-clause's summary-resolved source is its access path.
        if isinstance(clause, LetClause) or \
                not is_absolute_simple_path(clause.source):
            _plan(clause.source, scope, flwors, paths)
        clauses.append(planned)
        scope = {**scope, clause.var: _node_path(clause.source)
                 if isinstance(clause, ForClause) else None}
    for child in _children(expr)[len(expr.clauses):]:
        _plan(child, scope, flwors, paths)
    flwors[slot] = FlworPlan(expr, tuple(clauses), tuple(pending))


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


def bind_plan(plan: QueryPlan, repo_of) -> list[Operator]:
    """The plan's operator trees over the repositories ``repo_of``
    names, each under ``XMLSerialize``: one per FLWOR — its for-clauses
    joined left to right — and one per absolute path."""
    trees = [XMLSerialize(_bind_flwor(f, repo_of), ())
             for f in plan.flwors]
    return trees + [
        XMLSerialize(_source_access(path, "$path", repo_of), ("$path",))
        for path in plan.paths]


def _source_access(source: Expression, column: str, repo_of) -> Operator:
    if is_absolute_simple_path(source) and source.steps:
        return StructureSummaryAccess(
            repo_of(source.document),
            [(s.axis, s.test) for s in source.steps], column)
    return OpaqueSource(f"{column} in opaque source")


def _bind_flwor(plan: FlworPlan, repo_of) -> Operator:
    tree = None
    for step in plan.clauses:
        clause = step.clause
        if isinstance(clause, LetClause):
            continue
        column = f"${clause.var}"
        if tree is None and (step.join or step.thetas):
            # A nested FLWOR joining against outer variables: the
            # binding stream it runs under is its left input.
            tree = OpaqueSource("enclosing bindings")
        theta = step.bind_theta(repo_of, left=tree)
        if theta is not None:
            tree = theta[1]
            continue
        join = step.bind_join(repo_of)
        if join is not None:
            # Run once; each binding of the probe variable looks its
            # matches up.
            tree = NestedLoopJoin(tree, join[1], None)
            continue
        selection = step.bind_selection(repo_of)
        access = selection[1] if selection is not None else \
            _source_access(clause.source, column, repo_of)
        tree = access if tree is None else \
            NestedLoopJoin(tree, access, None)
    return tree if tree is not None else OpaqueSource("empty FLWOR")
