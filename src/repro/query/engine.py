"""The XQueC query evaluation engine.

Evaluates the supported XQuery subset directly over a
:class:`~repro.storage.repository.CompressedRepository`, keeping values
compressed for as long as possible.  A query is planned and bound
once (:func:`~repro.query.optimizer.plan_query`,
:func:`~repro.query.optimizer.bind_plan`, at prepare time) into a
:class:`PreparedPlan`; that one object is what the Tier-A verifier
checks, what the plan cache holds, what EXPLAIN and the slow log
render and what the evaluator runs — the evaluator classifies, binds
and resolves nothing itself:

* absolute paths resolve through the structure summary
  (``StructureSummaryAccess``, resolved at bind) — never by walking
  the full structure tree (Figure 4);
* a for-clause's selections — ``$v/leaf op constant``, ``empty(…)``,
  ``contains($v/leaf, "literal")``, ``$v/p op K * $v/q``, predicates
  on the source's last step — run once, as the ``ContAccess → Parent
  → NodeSet`` tree (``ColumnCompare`` for ``K *``) of
  :func:`~repro.query.optimizer.assign_selection` (bottom-up
  strategy); a conjunct the containers answer exactly is not
  evaluated per binding at all, a ``contains`` is re-checked on the
  candidates only;
* a relative path below a for-variable (``$b/initial/text()``,
  ``$i/description``, ``$b/bidder[1]/increase/text()``) is a
  projection (:func:`~repro.query.optimizer.assign_projection`): a
  binding looks its nodes or values up among the summary extents and
  leaf containers' records, grouped by owner once, and ``count`` reads
  the group's size — it navigates only where the data refuse;
* equality joins between binding variables run once per execution,
  as one ``MergeJoin`` over the two value-sorted key containers
  (:func:`~repro.query.optimizer.assign_equi_join`), keys decoded — a
  default load trains one codec per container, so the two sides'
  codewords do not compare; each outer binding looks its matches up,
  and each match binds once, in document order;
* inequality joins against a (scaled) numeric path run as one binary
  search per outer binding on the value-sorted containers
  (:class:`~repro.query.physical.ThetaJoin`), falling back to the
  nested loop wherever position is not the reference comparison;
* a FLWOR whose bindings those strategies decide whole runs as columns
  (:class:`~repro.query.optimizer.RowPlan`, dispatched in
  ``_eval_flwor``): one node-id column per for-variable, expanded by
  each join's matches or theta probe, ``count`` read off group sizes,
  and a constructor written per row from the template bound once per
  plan — markup strings and compressed holes
  (:class:`~repro.query.context.WrittenItem`), no env dict and no DOM;
  anything else runs per binding;
* everything that reaches the query result passes through an explicit
  decompression step, counted in
  :class:`~repro.query.context.EvaluationStats`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import PlanVerificationError, QueryError, QueryTypeError
from repro.lint.plan import verify_plan
from repro.obs.telemetry import Telemetry, span_on
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
    Step,
    StringLiteral,
    TextLiteral,
    VarRef,
)
from repro.query.context import (
    CompressedItem,
    EvaluationStats,
    LazyText,
    NodeItem,
    WrittenItem,
    _format_number,
    compare_items,
    effective_boolean,
    number_value,
    string_value,
)
from repro.query.functions import FUNCTIONS
from repro.query.options import ExecutionOptions
from repro.query.optimizer import (
    BoundPlan,
    BoundRows,
    ClausePlan,
    FlworPlan,
    QueryPlan,
    Template,
    bind_plan,
    plan_query,
)
from repro.query.parser import parse_query
from repro.query.physical import counting
from repro.storage.repository import CompressedRepository
from repro.storage.summary import TEXT_STEP
from repro.xmlio.dom import Element, Text, parse
from repro.xmlio.escape import escape_attribute, escape_text
from repro.xmlio.writer import markup, serialize


class QueryResult:
    """The evaluated sequence plus serialization and statistics.

    The uniform return type of the whole execution API — engine,
    session and system all hand one back.  It implements the sequence
    protocol over the *materialized* items (``len``, indexing,
    iteration), so callers never need to reach into engine internals
    to consume a result.
    """

    def __init__(self, items: list, stats: EvaluationStats,
                 engine: "QueryEngine",
                 telemetry: Telemetry | None = None,
                 lazy_texts: list | None = None, cache=None):
        self._raw_items = items
        self._decoded: list | None = None
        self._materialized: list | None = None
        self.stats = stats
        self._engine = engine
        #: the traced run's record; ``None`` when untraced.
        self.telemetry = telemetry
        #: every :class:`~repro.query.context.LazyText` the run built.
        self._lazy_texts = lazy_texts if lazy_texts is not None else []
        self._cache = cache  # the run's block cache, if any

    def _decode(self) -> list:
        """Each raw item decompressed (str/float/bool/Element), a
        :class:`~repro.query.context.WrittenItem` to its XML — the final
        Decompress step, run once: repeated access must not redo — or
        double-count — it.  Every text the run left compressed is read
        here, so the counters are those of a run that decoded its
        constructed content eagerly."""
        if self._decoded is None:
            lazy = self._lazy_texts
            with span_on(self.telemetry, "Decompress"):
                self._decoded = [
                    item.xml() if isinstance(item, WrittenItem) else
                    self._engine.materialize_item(item, self.stats, lazy,
                                                  self._cache)
                    for item in self._raw_items]
                for text in lazy:
                    text.value  # decodes, charging the run's stats
        return self._decoded

    @property
    def items(self) -> list:
        """Fully decompressed result items (str/float/bool/Element): a
        written element is parsed back into one here, and only here."""
        if self._materialized is None:
            self._materialized = [
                parse(value, keep_whitespace=True).root
                if isinstance(item, WrittenItem) else value
                for item, value in zip(self._raw_items, self._decode())]
        return self._materialized

    def values(self) -> list:
        """Items with Elements serialized to XML strings; a written
        element's runs are joined, its holes decoded in order."""
        return [serialize(item) if isinstance(item, Element) else item
                for item in self._decode()]

    def ship(self) -> bytes:
        """The result-set frame of :func:`repro.query.shipping
        .ship_result`: values and text content still compressed (§1:
        compressed results spare network bandwidth); unpack with
        :func:`~repro.query.shipping.receive_result`."""
        from repro.query.shipping import ship_result
        return ship_result(self)

    def to_xml(self) -> str:
        """Serialize the whole result sequence as XML/text."""
        return "\n".join(_format_number(value) if isinstance(value, float)
                         else str(value) for value in self.values())

    def __len__(self) -> int:
        return len(self._raw_items)

    def __getitem__(self, index):
        return self.items[index]

    def __iter__(self):
        return iter(self.items)


class PreparedPlan:
    """A query planned, bound and verified once: its AST, its
    :class:`~repro.query.optimizer.QueryPlan`, its
    :class:`~repro.query.optimizer.BoundPlan` — the operators every run
    executes, the verifier checked and EXPLAIN prints — what the
    Tier-A verifier found and the text it was prepared from (``None``
    for a pre-parsed expression).

    The one copy of a query's plan, which the plan cache holds, every
    run executes and EXPLAIN, EXPLAIN ANALYZE and the slow log render.
    Holds no engine or session reference, so one plan cache can back
    several sessions over the same repository.
    """

    __slots__ = ("ast", "plan", "bound", "diagnostics", "text")

    def __init__(self, ast: Expression, plan: QueryPlan,
                 bound: BoundPlan, diagnostics: list = (),
                 text: str | None = None):
        self.ast = ast
        self.plan = plan
        self.bound = bound
        self.diagnostics = list(diagnostics)
        self.text = text

    @property
    def has_errors(self) -> bool:
        """Whether the verifier found an error: such a plan can be
        explained, never run."""
        return any(d.severity == "error" for d in self.diagnostics)

    def checked(self) -> "PreparedPlan":
        """This plan, past the Tier-A gate: error diagnostics raise
        :class:`~repro.errors.PlanVerificationError`."""
        if self.has_errors:
            raise PlanVerificationError(self.diagnostics)
        return self

    def __repr__(self) -> str:
        return f"<PreparedPlan {self.text or type(self.ast).__name__!r}>"


class QueryEngine:
    """Plans, verifies and evaluates queries over compressed
    repositories.

    ``repository`` is the default document; ``collection`` optionally
    maps further document names to repositories, dispatched through
    ``document("name")/...`` paths (joins across documents included).
    The engine keeps no plans: a caller that re-runs a query holds
    its :class:`PreparedPlan` (the session's plan cache does).
    ``block_cache`` (a session's) memoises the records results read,
    unless a run's ``ExecutionOptions.use_block_cache`` is off.
    """

    def __init__(self, repository: CompressedRepository,
                 collection: dict[str, CompressedRepository]
                 | None = None, block_cache=None):
        self.repository = repository
        self.collection = collection or {}
        self.block_cache = block_cache

    def repository_of(self, doc: str | None) -> CompressedRepository:
        """Repository for a document name (default when unknown)."""
        if doc is None:
            return self.repository
        return self.collection.get(doc, self.repository)

    def execute(self, query: str | Expression | PreparedPlan,
                options: ExecutionOptions | None = None) -> QueryResult:
        """Evaluate a query, planning it first unless it is a
        :class:`PreparedPlan` already.

        ``options`` is an :class:`~repro.query.options.ExecutionOptions`
        carrying the run's telemetry and binding knobs; the run is
        traced exactly when ``options.telemetry`` is given.  A prepared
        plan (the session's, from its plan cache) skips planning and
        verification entirely.  Either way the Tier-A gate has passed
        before any row is produced; the verifier's warnings flow into a
        traced run's telemetry, whose ``Execute`` span is named by the
        plan's text (the expression's type for a pre-parsed one).  A
        plan bound to another repository raises
        :class:`~repro.errors.QueryError`.
        """
        if options is None:
            options = ExecutionOptions()
        prepared = (query if isinstance(query, PreparedPlan)
                    else self.prepare(query)).checked()
        if any(self.repository_of(doc) is not repository
               for doc, repository in prepared.bound.repositories.items()):
            raise QueryError("the plan is bound to another repository; "
                             "prepare it on this engine")
        ast, telemetry = prepared.ast, options.telemetry
        evaluator = _Evaluator(self, prepared, telemetry,
                               self.block_cache if options.use_block_cache
                               else None)
        if telemetry is not None:
            telemetry.diagnostics.extend(prepared.diagnostics)
        with counting(evaluator.stats, telemetry), span_on(
                telemetry, "Execute",
                query=prepared.text or type(ast).__name__):
            items = evaluator.eval(ast, options.binding_environment())
        return QueryResult(items, evaluator.stats, self,
                           telemetry=telemetry,
                           lazy_texts=evaluator.lazy_texts,
                           cache=evaluator.cache)

    def prepare(self, query: str | Expression) -> PreparedPlan:
        """Plan the query, bind the plan to this engine's repositories
        — once: every run executes what is bound here — and run the
        Tier-A verifier over each bound operator.  Error diagnostics
        are kept, not raised: a failed plan can still be explained."""
        text, ast = (query, parse_query(query)) \
            if isinstance(query, str) else (None, query)
        plan = plan_query(ast)
        bound = bind_plan(ast, plan, self.repository_of)
        return PreparedPlan(ast, plan, bound, [
            diagnostic for operator in bound.operators()
            for diagnostic in verify_plan(operator)], text)

    def plan(self, query: str | Expression) -> PreparedPlan:
        """The query's plan, past the Tier-A gate
        (:meth:`PreparedPlan.checked`) that ``execute`` and
        ``Session.prepare`` apply too."""
        return self.prepare(query).checked()

    def verify(self, query: str | Expression) -> list:
        """The :class:`~repro.lint.PlanDiagnostic` list of the query's
        plan, errors included (``repro lint-plan`` prints them)."""
        return self.prepare(query).diagnostics

    def explain(self, query: str | Expression) -> str:
        """Describe the evaluation strategy without running the query."""
        from repro.query.explain import explain
        return explain(self.prepare(query))

    def explain_analyze(self, query: str | Expression) -> str:
        """Run the query and render the plan with actual counts/timings.

        See :func:`repro.query.analyze.explain_analyze`; use that
        directly to also get the :class:`QueryResult` and telemetry.
        """
        from repro.query.analyze import explain_analyze
        return explain_analyze(query, self).text

    # -- result materialization ------------------------------------------------

    def materialize_item(self, item, stats: EvaluationStats,
                         lazy_texts: list | None = None, cache=None):
        """Decompress one result item (the final Decompress step); a
        node's texts stay compressed (see :meth:`materialize_node`)."""
        if isinstance(item, CompressedItem):
            return item.decode(stats)
        if isinstance(item, NodeItem):
            return self.materialize_node(item.node_id, stats,
                                         doc=item.doc,
                                         lazy_texts=lazy_texts,
                                         cache=cache)
        return item

    def materialize_node(self, node_id: int,
                         stats: EvaluationStats,
                         doc: str | None = None,
                         lazy_texts: list | None = None,
                         cache=None) -> Element:
        """Rebuild a repository node as an XML element (Figure 5's
        XMLSerialize step): every element of the subtree first, then
        each takes its attributes and, in content order, its texts and
        children.

        Attributes are decoded; each text is a
        :class:`~repro.query.context.LazyText` over its container slot,
        decoded on first read (blob texts, already plain, excepted).
        ``lazy_texts`` collects them.  Records are read through ``cache``
        (a run's block cache), if given."""
        repo = self.repository_of(doc)
        structure, steps = repo.structure, repo.structure.steps
        tags, pointers, indexes, slots, offsets, content = \
            structure.subtree(node_id)
        names = repo.dictionary.names()
        containers: list = [None] * len(steps)
        lazy = lazy_texts if lazy_texts is not None else []

        def container_of(pointer: int):
            index = indexes[pointer]
            if containers[index] is None:
                containers[index] = repo.container(structure.paths[index])
            return containers[index]

        def value(pointer: int) -> str:
            stats.decompressions += 1
            container = container_of(pointer)
            return container.value_at(slots[pointer]) if cache is None \
                else cache.value_at(container, slots[pointer])

        def text(pointer: int) -> Text:
            container = container_of(pointer)
            if container.is_blob:
                return Text(value(pointer))
            lazy.append(LazyText(stats, container=container,
                                 slot=slots[pointer], cache=cache))
            return lazy[-1]

        elements = [Element(names[tag]) for tag in tags]
        for local, element in enumerate(elements):
            for pointer in range(pointers[local], pointers[local + 1]):
                step = steps[indexes[pointer]]
                if step != TEXT_STEP:
                    element.set_attribute(step[1:], value(pointer))
            for entry in content[offsets[local]:offsets[local + 1]]:
                element.append(elements[entry] if entry >= 0 else
                               text(pointers[local] + ~entry))
        return elements[0]


class _Evaluator:
    def __init__(self, engine: QueryEngine, prepared: PreparedPlan,
                 telemetry: Telemetry | None = None, cache=None):
        self._engine = engine
        self._repo = engine.repository_of
        #: every FLWOR dispatches on the plan and runs what it is bound
        #: to, as every path does.
        self._plans, self._bound = prepared.plan.by_node(), prepared.bound
        self.telemetry = telemetry
        # A traced run counts into its telemetry's stats, so every view
        # of the telemetry quotes QueryResult.stats.
        self.stats = telemetry.stats if telemetry is not None \
            else EvaluationStats()
        #: the block cache the run reads records through, if any.
        self.cache = cache
        #: cached sequences for binding-independent source expressions.
        self._source_cache: dict[int, list] = {}
        #: what each clause's selection or equality join produced this run.
        self._outputs: dict[int, tuple] = {}
        #: the still-compressed texts constructors built
        #: (:attr:`QueryResult.items` reads them).
        self.lazy_texts: list = []

    # -- dispatch -------------------------------------------------------------

    def eval(self, expr: Expression, env: dict) -> list:
        method = self._DISPATCH.get(type(expr))
        if method is None:
            raise QueryError(f"cannot evaluate {type(expr).__name__}")
        return method(self, expr, env)

    def _eval_literal(self, expr: StringLiteral | NumberLiteral
                      | TextLiteral, env: dict) -> list:
        return [expr.value]

    def _eval_var(self, expr: VarRef, env: dict) -> list:
        try:
            return env[expr.name]
        except KeyError:
            raise QueryError(f"unbound variable ${expr.name}") from None

    def _eval_context(self, expr: ContextItem, env: dict) -> list:
        try:
            return [env["."]]
        except KeyError:
            raise QueryError("no context item here") from None

    def _eval_sequence(self, expr: SequenceExpr, env: dict) -> list:
        result: list = []
        for item in expr.items:
            result.extend(self.eval(item, env))
        return result

    def _eval_logical(self, expr: Logical, env: dict) -> list:
        left = effective_boolean(self.eval(expr.left, env))
        if left == (expr.op == "or"):  # false and …, true or …
            return [left]
        return [effective_boolean(self.eval(expr.right, env))]

    def _eval_comparison(self, expr: Comparison, env: dict) -> list:
        left = self._atomize_sequence(self.eval(expr.left, env))
        right = self._atomize_sequence(self.eval(expr.right, env))
        for l_item in left:
            for r_item in right:
                if compare_items(expr.op, l_item, r_item, self.stats):
                    return [True]
        return [False]

    def _eval_arithmetic(self, expr: Arithmetic, env: dict) -> list:
        left = self.eval(expr.left, env)
        right = self.eval(expr.right, env)
        if not left or not right:
            return []
        a = number_value(self._atomize(left[0]), self.stats)
        b = number_value(self._atomize(right[0]), self.stats)
        if expr.op == "+":
            return [a + b]
        if expr.op == "-":
            return [a - b]
        if expr.op == "*":
            return [a * b]
        if expr.op == "div":
            if b == 0.0:
                raise QueryTypeError("division by zero in div")
            return [a / b]
        if expr.op == "mod":
            if b == 0.0:
                raise QueryTypeError("division by zero in mod")
            return [a % b]
        raise QueryError(f"unknown arithmetic operator {expr.op!r}")

    #: functions that operate on raw sequences — atomizing their
    #: arguments would decompress values for nothing (count of nodes
    #: must not decode the nodes' text).
    _SEQUENCE_FUNCTIONS = frozenset(("count", "empty", "not",
                                     "zero-or-one"))

    def _eval_function(self, expr: FunctionCall, env: dict) -> list:
        function = FUNCTIONS.get(expr.name)
        if function is None:
            raise QueryError(f"unknown function {expr.name}()")
        size = self._size(expr.args[0], env) \
            if expr.name == "count" and len(expr.args) == 1 else None
        if size is not None:
            return [float(size)]
        if expr.name in self._SEQUENCE_FUNCTIONS:
            args = [self.eval(arg, env) for arg in expr.args]
        else:
            args = [self._atomize_sequence(self.eval(arg, env))
                    for arg in expr.args]
        return function(args, self.stats)

    def _size(self, expr: Expression, env: dict) -> int | None:
        """The number of items ``expr`` evaluates to, read off group
        sizes without building them: a path projected below a binding,
        a countable row FLWOR; else ``None``."""
        if isinstance(expr, PathExpr):
            projection = self._bound.projections.get(id(expr))
            if projection is not None:
                (item,) = env[projection.plan.var]
                return projection.size(item.node_id)
        elif isinstance(expr, FLWOR):
            rows = self._bound.rows.get(id(expr))
            if rows is not None and rows.plan.countable:
                return self._counts(rows, self._outer(rows, env), 1,
                                    env)[0]
        return None

    # -- FLWOR ---------------------------------------------------------------------

    def _eval_flwor(self, expr: FLWOR, env: dict) -> list:
        rows = self._bound.rows.get(id(expr))
        if rows is not None:
            return self._grouped(rows, self._outer(rows, env), 1, env)[0]
        results: list = []
        # order by: collect (sort keys, result items) per binding,
        # then stable-sort from the last key to the first.
        keyed: list[tuple[tuple, list]] = []

        def collect(bound_env: dict) -> None:
            items = self.eval(expr.result, bound_env)
            if expr.order:
                keyed.append((tuple(self._order_key(spec.key, bound_env)
                                    for spec in expr.order), items))
            else:
                results.extend(items)

        self._flwor_clause(self._plans[id(expr)], 0, dict(env), collect)
        for position in range(len(expr.order) - 1, -1, -1):
            keyed.sort(key=lambda pair, p=position: pair[0][p],
                       reverse=expr.order[position].descending)
        for _, items in keyed:
            results.extend(items)
        return results

    def _order_key(self, key_expr: Expression, env: dict) -> tuple:
        """A totally ordered sort key: empty < numbers < strings."""
        sequence = self.eval(key_expr, env)
        if not sequence:
            return (-1, 0.0, "")
        atom = self._atomize(sequence[0])
        try:
            return (0, number_value(atom, self.stats), "")
        except (ValueError, TypeError, QueryError):
            return (1, 0.0, string_value(atom, self.stats))

    def _flwor_clause(self, plan: FlworPlan, index: int, env: dict,
                      results) -> None:
        """Bind clause ``index`` onwards the way its
        :class:`~repro.query.optimizer.ClausePlan` says."""
        if index == len(plan.clauses):
            for conjunct in plan.residual:
                if not effective_boolean(self.eval(conjunct, env)):
                    return
            results(env)
            return
        step = plan.clauses[index]
        clause = step.clause
        if isinstance(clause, LetClause):
            env = dict(env)
            env[clause.var] = self.eval(clause.source, env)
            self._flwor_clause(plan, index + 1, env, results)
            return
        # One operator run per execution decides the clause's bindings:
        # an equality join (matches looked up per outer binding), an
        # inequality join (one binary search per outer binding), else
        # the constant selections.  Refused, every binding of the
        # source checks every conjunct.
        bound = self._bound.clauses[id(step)]
        ids, rest = self._join(step, bound.join, env) if bound.join \
            else self._theta_range(step, bound.theta, env) \
            if bound.theta else (None, None)
        if ids is None:
            items, rest = self._fallback(step, bound, env)
        else:
            document = clause.source.document
            items = [NodeItem(node_id, document) for node_id in (
                # A theta join's slots are in value order; bindings
                # leave in document order (the others' ids already do).
                np.sort(ids).tolist() if isinstance(ids, np.ndarray)
                else ids)]
        for item in items:
            child_env = dict(env)
            child_env[clause.var] = [item]
            if self._passes(rest, child_env):
                self._flwor_clause(plan, index + 1, child_env, results)

    def _passes(self, conjuncts, env: dict) -> bool:
        return all(effective_boolean(self.eval(conjunct, env))
                   for conjunct in conjuncts)

    def _fallback(self, step: ClausePlan, bound, env: dict):
        """``(items, conjuncts each binding checks)`` of a clause no
        join or theta probe decides: the selection's nodes, else every
        item of the source."""
        if bound.selection:
            ids, rest = self._selection(step, bound.selection)
            document = step.clause.source.document
            return [NodeItem(node_id, document) for node_id in ids], rest
        return self._clause_items(step, env), step.decidable

    def _selection(self, step: ClausePlan, bound: tuple):
        """``(node ids, conjuncts left to check)`` of a clause's bound
        selection tree (:func:`~repro.query.optimizer.assign_selection`),
        run once per execution however often the clause is re-entered."""
        if id(step) not in self._outputs:
            selection, operator = bound
            with span_on(self.telemetry, "Selection",
                         terms=len(selection.terms)) as span:
                ids = operator.run()[f"${step.clause.var}"].tolist()
                span.set_attribute("rows", len(ids))
            self._outputs[id(step)] = ids, step.rest(selection)
        return self._outputs[id(step)]

    def _clause_items(self, step: ClausePlan, env: dict) -> list:
        """Items for a for-clause; a binding-independent source is
        evaluated once."""
        source = step.clause.source
        if not (step.independent and step.context_free):
            return self.eval(source, env)
        cached = self._source_cache.get(id(source))
        if cached is None:
            cached = self.eval(source, env)
            self._source_cache[id(source)] = cached
        return cached

    # -- rows -----------------------------------------------------------------------

    def _outer(self, rows: BoundRows, env: dict) -> dict:
        """One row of the enclosing for-variables' node ids a row plan
        reads, from the run's bindings."""
        columns = {}
        for var in rows.plan.outer:
            (item,) = env[var]
            columns[var] = [item.node_id]
        return columns

    def _expand(self, rows: BoundRows, clauses, columns: dict, n: int,
                env: dict) -> tuple[dict, list]:
        """The rows ``clauses`` (of ``rows``) bind below ``n`` outer rows
        of node-id ``columns``: ``(columns, origin)``, each row's outer
        row in ``origin``.  A clause no row reaches runs nothing."""
        origin = list(range(n))
        for clause in clauses:
            groups = self._groups(rows, clause, columns, len(origin),
                                  env) if origin else []
            if clause.kind == "theta":
                # A probe's owners are in value order; rows leave in
                # document order.
                groups = [np.sort(group).tolist() for group in groups]
            if len(groups) == 1:  # one row: repeat it, gather nothing
                size = len(groups[0])
                columns = {var: column * size
                           for var, column in columns.items()}
                columns[clause.step.clause.var] = list(groups[0])
                origin = origin * size
                continue
            parents = [row for row, group in enumerate(groups)
                       for _ in group]
            columns = {var: [column[row] for row in parents]
                       for var, column in columns.items()}
            columns[clause.step.clause.var] = [
                node for group in groups for node in group]
            origin = [origin[row] for row in parents]
        return columns, origin

    def _groups(self, rows: BoundRows, clause, columns: dict, n: int,
                env: dict) -> list:
        """Per row of the ``n`` of ``columns``, the node ids ``clause``
        binds: a join's matches, a theta join's probe range (in value
        order), the selection's or the source's ids — each operator run
        once per execution."""
        step, kind = clause.step, clause.kind
        if kind == "join":
            matches = self._matches(step, clause.bound)
            return [matches.get(node, ()) for node in columns[clause.probe]]
        if kind == "theta":
            return [self._theta_group(rows, clause, columns, row, env)
                    for row in range(n)]
        ids = self._selection(step, clause.bound)[0] \
            if kind == "selection" else self._source_ids(step)
        return [ids] * n

    def _source_ids(self, step: ClausePlan) -> list[int]:
        """A summary-resolved source's node ids, pulled once per run."""
        if id(step) not in self._outputs:
            source = step.clause.source
            access = self._bound.paths[id(source)]
            self._outputs[id(step)] = \
                access.run()[access.column].tolist() \
                if len(self._repo(source.document).structure) else []
        return self._outputs[id(step)]

    def _theta_group(self, rows: BoundRows, clause, columns: dict,
                     row: int, env: dict) -> list[int]:
        """One row's theta join probe: its owners, in value order, or
        — a probe that is no number — the fallback's bindings that pass
        the conjuncts under the row's bindings."""
        probe = clause.probe
        owners = self._theta_owners(clause.bound, self._atomize_sequence(
            self._in_span("Projection", probe.values,
                          columns[probe.plan.var][row])))
        if owners is not None:
            return owners
        step = clause.step
        env = {**env, **{var: [NodeItem(columns[var][row], doc)]
                         for var, doc in rows.plan.docs if var in columns}}
        items, rest = self._fallback(step, self._bound.clauses[id(step)],
                                     env)
        return [item.node_id for item in items
                if self._passes(rest, {**env, step.clause.var: [item]})]

    def _grouped(self, rows: BoundRows, columns: dict, n: int, env: dict
                 ) -> list[list]:
        """Per outer row, the items row plan ``rows`` returns below it:
        its rows expanded once, each column read or written from its
        template."""
        columns, origin = self._expand(rows, rows.clauses, columns, n, env)
        values = self._lets(rows, columns, len(origin), env)
        result = rows.result
        per_row = [[WrittenItem(parts)] for parts in self._written(
            result, columns, values, len(origin))] \
            if result.__class__ is Template else \
            self._column(result, columns, values, len(origin))
        if n == 1:
            return [[item for items in per_row for item in items]]
        groups: list[list] = [[] for _ in range(n)]
        for outer, items in zip(origin, per_row):
            groups[outer] += items
        return groups

    def _counts(self, rows: BoundRows, columns: dict, n: int, env: dict
                ) -> list[int]:
        """Per outer row, how many items countable row plan ``rows``
        returns below it, read off group sizes: its last clause's, or a
        projected path's, never expanded."""
        sizes = [0] * n
        *clauses, last = rows.clauses
        columns, origin = self._expand(rows, clauses, columns, n, env)
        if not origin:
            return sizes
        groups = self._groups(rows, last, columns, len(origin), env)
        counts = map(len, groups)
        if rows.result[0] == "path":
            _, var, projection = rows.result
            counts = [sum(map(projection.size, group.tolist()
                              if isinstance(group, np.ndarray) else group))
                      for group in groups] \
                if var == last.step.clause.var else \
                [projection.size(node) * len(group)
                 for node, group in zip(columns[var], groups)]
        for outer, count in zip(origin, counts):
            sizes[outer] += count
        return sizes

    def _lets(self, rows: BoundRows, columns: dict, n: int, env: dict
              ) -> dict:
        """Each let's value per row: a count, or the items a nested
        row plan writes as content."""
        values: dict = {}
        for key, counted, source in rows.lets:
            values[key] = self._grouped(source, columns, n, env) \
                if not counted else \
                self._counts(source, columns, n, env) \
                if isinstance(source, BoundRows) else \
                self._sizes(source, columns, values)
        return values

    @staticmethod
    def _sizes(source: tuple, columns: dict, values: dict) -> list[int]:
        """A count's group size per row: a counted let's, or a
        projected path's."""
        if source[0] == "let":
            return values[source[1]]
        _, var, projection = source
        return [projection.size(node) for node in columns[var]]

    def _column(self, expr: tuple, columns: dict, values: dict, n: int
                ) -> list[list]:
        """A bound row expression's items in each of the ``n`` rows."""
        kind = expr[0]
        if kind == "path":
            _, var, projection = expr
            if self.telemetry is None:
                return [projection.values(node) for node in columns[var]]
            return [self._in_span("Projection", projection.values, node)
                    for node in columns[var]]
        if kind == "node":
            return [[NodeItem(node, expr[2])] for node in columns[expr[1]]]
        if kind == "count":
            return [[float(size)]
                    for size in self._sizes(expr[1], columns, values)]
        if kind == "literal":
            return [[expr[1]]] * n
        return values[expr[1]]  # a content let's items

    def _written(self, template: Template, columns: dict, values: dict,
                 n: int) -> list[list]:
        """``template`` filled in each of the ``n`` rows: its markup
        strings and holes, as :func:`~repro.xmlio.writer.markup` would
        serialize the element the DOM path builds."""
        written: list[list] = [[] for _ in range(n)]
        self._fill(template, columns, values, written)
        return written

    def _fill(self, template: Template, columns: dict, values: dict,
              written: list[list]) -> None:
        """Append ``template``, slot by slot, to every row's parts."""
        n = len(written)
        for piece in template.head:
            if piece.__class__ is str:
                for parts in written:
                    parts.append(piece)
                continue
            for parts, items in zip(written, self._column(
                    piece, columns, values, n)):
                parts.append(escape_attribute(self._attribute(items)))
        starts = [len(parts) for parts in written]
        for parts in written:
            parts.append(">")
        filled = [template.filled] * n
        for piece in template.content:
            if piece.__class__ is str:
                for parts in written:
                    parts.append(piece)
            elif piece.__class__ is Template:
                self._fill(piece, columns, values, written)
            elif piece[0] == "count":  # a number: no escaping, never empty
                for parts, size in zip(written, self._sizes(
                        piece[1], columns, values)):
                    parts.append(str(size))
                filled = [True] * n
            else:
                for row, (parts, items) in enumerate(zip(
                        written, self._column(piece, columns, values, n))):
                    if items:
                        filled[row] = True
                        for item in items:
                            self._write_item(item, parts)
        close = template.close
        for row, parts in enumerate(written):
            if filled[row]:
                parts.append(close)
            else:
                parts[starts[row]] = "/>"

    def _write_item(self, item, out: list) -> None:
        """One content item's markup: a written element's parts, a
        compressed value's hole, a stored node's markup with its texts
        as holes, an atomic value's escaped text."""
        if isinstance(item, WrittenItem):
            out += item.parts
        elif isinstance(item, CompressedItem):
            # Content stays compressed until read: decompress at the end.
            self.lazy_texts.append(LazyText(self.stats, item=item))
            out.append(self.lazy_texts[-1])
        elif isinstance(item, NodeItem):
            element = self._engine.materialize_node(
                item.node_id, self.stats, doc=item.doc,
                lazy_texts=self.lazy_texts, cache=self.cache)
            out += [part if part.__class__ is str
                    or part.__class__ is LazyText else escape_text(part.value)
                    for part in markup(element, keep_texts=True)]
        else:
            out.append(escape_text(string_value(item, self.stats)))

    # -- equality joins ---------------------------------------------------------------

    def _join(self, step: ClausePlan, bound: tuple, env: dict):
        """``(node ids, conjuncts left to check)`` of a clause's bound
        ``MergeJoin`` (:func:`~repro.query.optimizer.assign_equi_join`),
        run once per execution: the probe node's matches, each once, in
        document order."""
        (probe,) = env[bound[0].probe_vars[0]]
        return self._matches(step, bound).get(probe.node_id, ()), \
            step.rest(bound[0])

    def _matches(self, step: ClausePlan, bound: tuple) -> dict:
        """The clause's bound ``MergeJoin`` run, once per execution:
        its matches by probe node id."""
        if id(step) not in self._outputs:
            plan, join = bound
            with span_on(self.telemetry, "MergeJoin.build") as span:
                self._outputs[id(step)] = _matches_by_probe(
                    join, f"${plan.probe_vars[0]}", f"${step.clause.var}")
                span.set_attribute("rows", len(self._outputs[id(step)]))
        return self._outputs[id(step)]

    # -- theta joins ------------------------------------------------------------------

    def _theta_range(self, step: ClausePlan, bound: tuple, env: dict):
        """``(owners, conjuncts left to check)`` of this binding's probe
        of the clause's bound theta join, in value order; ``(None,
        None)`` for the nested loop."""
        try:
            items = self._atomize_sequence(
                self.eval(bound[0].probe_expr, env))
        except QueryError:
            # The nested loop raises it, if it gets there.
            return None, None
        owners = self._theta_owners(bound, items)
        return (None, None) if owners is None else \
            (owners, step.rest(bound[0]))

    def _theta_owners(self, bound: tuple, items: list):
        """The owners a theta join's probe with the atomized ``items``
        matches, in value order; ``None`` where the probe is no number
        (the caller checks the conjunct per binding)."""
        plan, join = bound
        values = []
        for item in items:
            # Text orders numerically only against an actual number:
            # the arithmetic key form.  Unparsable text never matches.
            if plan.scale is not None and \
                    isinstance(item, (CompressedItem, str)):
                try:
                    item = float(string_value(item, self.stats))
                except ValueError:
                    continue
            if type(item) is not float or not math.isfinite(item):
                return None
            values.append(item)
        # Existential over the probe values: the widest range, a
        # prefix of the sorted keys for < / <=, a suffix for > / >=.
        start, end = (0, 0) if not values else self._in_span(
            "ThetaJoin.probe", join.probe,
            max(values) if plan.op in ("<", "<=") else min(values))
        return join.owners[start:end]

    def _in_span(self, name: str, function, *args):
        """``function(*args)``, under a span of a traced run."""
        if self.telemetry is None:
            return function(*args)
        with self.telemetry.span(name):
            return function(*args)

    # -- paths ------------------------------------------------------------------------

    def _eval_path(self, expr: PathExpr, env: dict) -> list:
        if expr.start is not None:
            projection = self._bound.projections.get(id(expr))
            if projection is not None:
                (item,) = env[projection.plan.var]
                return self._in_span("Projection", projection.values,
                                     item.node_id)
            start_items = self.eval(expr.start, env)
            return self._apply_steps(start_items, expr.steps, env)
        # StructureSummaryAccess fast path: the longest element-step
        # prefix whose steps, but the last, are predicate-free was
        # resolved against the path summary at bind; jump straight to
        # its extents (Figure 4) instead of navigating the structure.
        access = self._bound.paths.get(id(expr))
        if access is None or not len(self._repo(expr.document).structure):
            return []  # the document node has no values
        cut = len(access.steps)
        context = self._filter_predicates([
            NodeItem(node_id, expr.document)
            for node_id in access.run()[access.column].tolist()],
            expr.steps[cut - 1], env)
        return self._apply_steps(context, expr.steps[cut:], env)

    def _apply_steps(self, context: list, steps, env: dict) -> list:
        for step in steps:
            context = self._apply_step(context, step, env)
        return context

    def _apply_step(self, context: list, step: Step, env: dict) -> list:
        output: list = []
        seen: set[int] = set()
        for item in context:
            # Atomic items have no children: step yields nothing.
            found = self._step_from_node(item, step) \
                if isinstance(item, NodeItem) else \
                self._step_from_element(item, step) \
                if isinstance(item, Element) else []
            for result in self._filter_predicates(found, step, env):
                if isinstance(result, NodeItem):
                    key = (result.node_id, result.doc)
                    if key in seen:
                        continue
                    seen.add(key)
                output.append(result)
        return output

    def _step_from_node(self, item: NodeItem, step: Step) -> list:
        repo = self._repo(item.doc)
        structure = repo.structure
        node_id = item.node_id
        if step.axis == "attribute":
            return self._node_values(item, "@" + step.test)
        if step.test == "text()":
            return self._node_values(item, TEXT_STEP,
                                     subtree=step.axis == "descendant")
        tag_code = (None if step.test == "*"
                    else repo.dictionary.code_of(step.test))
        if step.test != "*" and tag_code is None:
            return []
        self.stats.nodes_visited += 1
        if step.axis == "child":
            ids = structure.children_of(node_id, tag_code)
        else:
            ids = structure.descendants_of(node_id, tag_code)
        return [NodeItem(i, item.doc) for i in ids]

    def _node_values(self, item: NodeItem, step_name: str,
                     subtree: bool = False) -> list:
        """Attribute/text values of one node (``subtree``: every text
        below it, in document order), as CompressedItems."""
        repo = self._repo(item.doc)
        structure, cache = repo.structure, self.cache
        items = []
        for index, slot in (structure.subtree_texts(item.node_id)
                            if subtree else
                            structure.values_of(item.node_id, step_name)):
            container = repo.container(structure.paths[index])
            record = container.record_at(slot) if cache is None else \
                cache.record_at(container, slot)
            items.append(CompressedItem(record.compressed, container.codec,
                                        container.value_type))
        return items

    def _step_from_element(self, element: Element, step: Step) -> list:
        if step.axis == "attribute":
            value = element.attribute(step.test)
            return [] if value is None else [value]
        if step.test == "text()":
            return [text.value for text in (
                element.descendant_texts() if step.axis == "descendant"
                else element.child_texts())]
        if step.axis == "child":
            candidates = element.child_elements(
                None if step.test == "*" else step.test)
        else:
            candidates = list(element.descendants(
                None if step.test == "*" else step.test))
        return list(candidates)

    def _filter_predicates(self, items: list, step: Step, env: dict
                           ) -> list:
        """One context node's ``step`` output, filtered by the step's
        predicates.  A position counts per parent — the context node of
        a child step; ``//a[k]`` abbreviates
        ``descendant-or-self::node()/child::a[k]`` — and per context
        node for values, whose parents the items do not carry."""
        for predicate in step.predicates:
            if isinstance(predicate, NumberLiteral):
                counts: dict = {}
                kept = []
                for item in items:
                    key = (item.doc, self._repo(item.doc).structure
                           .parents.item(item.node_id)) \
                        if isinstance(item, NodeItem) else \
                        id(getattr(item, "parent", None))
                    counts[key] = counts.get(key, 0) + 1
                    # ``[k]`` is ``position() = k``: ``[1.5]`` keeps none.
                    if counts[key] == predicate.value:
                        kept.append(item)
                items = kept
                continue
            items = [item for item in items if effective_boolean(
                self.eval(predicate, {**env, ".": item}))]
        return items

    # -- constructors --------------------------------------------------------------------

    def _eval_constructor(self, expr: ElementConstructor,
                          env: dict) -> list:
        element = Element(expr.name)
        for name, parts in expr.attributes:
            element.set_attribute(name, "".join(
                part.value if isinstance(part, TextLiteral)
                else self._attribute(self.eval(part, env))
                for part in parts))
        for content in expr.content:
            if isinstance(content, TextLiteral):
                element.append(Text(content.value))
                continue
            for item in self.eval(content, env):
                self._append_content(element, item)
        return [element]

    def _attribute(self, items: list) -> str:
        """An attribute part's value: its items' string values,
        space-separated."""
        stats = self.stats
        return " ".join([item.decode(stats)
                         if item.__class__ is CompressedItem
                         else string_value(self._atomize(item), stats)
                         for item in items])

    def _append_content(self, element: Element, item) -> None:
        if isinstance(item, NodeItem):
            element.append(self._engine.materialize_node(
                item.node_id, self.stats, doc=item.doc,
                lazy_texts=self.lazy_texts, cache=self.cache))
        elif isinstance(item, (Element, Text)):
            element.append(item)
        elif isinstance(item, CompressedItem):
            # Content stays compressed until read: decompress at the end.
            self.lazy_texts.append(LazyText(self.stats, item=item))
            element.append(self.lazy_texts[-1])
        else:
            element.append(Text(string_value(item, self.stats)))

    # -- atomization --------------------------------------------------------------------

    def _atomize(self, item):
        """Typed value of one item; nodes atomize to their text.

        A node with exactly one text child atomizes to the *compressed*
        item, keeping later comparisons in the compressed domain.
        """
        if isinstance(item, NodeItem):
            values = self._node_values(item, TEXT_STEP)
            repo = self._repo(item.doc)
            if len(values) == 1 and \
                    not repo.structure.children_of(item.node_id):
                return values[0]
            self.stats.decompressions += 1
            return repo.full_text_of(item.node_id)
        if isinstance(item, Element):
            return item.text()
        return item

    def _atomize_sequence(self, items: list) -> list:
        return [self._atomize(item) for item in items]

    _DISPATCH = {
        StringLiteral: _eval_literal,
        NumberLiteral: _eval_literal,
        TextLiteral: _eval_literal,
        VarRef: _eval_var,
        ContextItem: _eval_context,
        SequenceExpr: _eval_sequence,
        Logical: _eval_logical,
        Comparison: _eval_comparison,
        Arithmetic: _eval_arithmetic,
        FunctionCall: _eval_function,
        FLWOR: _eval_flwor,
        PathExpr: _eval_path,
        ElementConstructor: _eval_constructor,
    }


def _matches_by_probe(join, probe: str, build: str) -> dict[int, list]:
    """The ``build`` node ids of a join's rows by ``probe`` node id,
    each list sorted and duplicate-free: a value shared twice, or two
    values shared, still binds a node once, and in document order."""
    columns = join.run()
    # The distinct (probe, build) pairs, sorted by probe, then build.
    probes, builds = np.unique(np.stack((columns[probe], columns[build])),
                               axis=1)
    starts = np.flatnonzero(np.diff(probes)) + 1
    return dict(zip(probes[np.r_[0, starts]].tolist(),
                    (group.tolist() for group in np.split(builds, starts)))
                ) if len(probes) else {}
