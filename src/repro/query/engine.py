"""The XQueC query evaluation engine.

Evaluates the supported XQuery subset directly over a
:class:`~repro.storage.repository.CompressedRepository`, keeping values
compressed for as long as possible.  A query is planned once
(:func:`~repro.query.optimizer.plan_query`, at prepare time); that
:class:`~repro.query.optimizer.QueryPlan` is what the Tier-A verifier
checks, what the plan cache holds and what the evaluator dispatches on
— the evaluator classifies nothing itself:

* absolute paths resolve through the structure summary
  (``StructureSummaryAccess``) — never by walking the full structure
  tree (Figure 4);
* a for-clause's constant selections — ``$v/leaf op constant``,
  ``empty($v/leaf)``, ``contains($v/leaf, "literal")``, predicates on
  the source's last step — run once, as the ``ContAccess → Parent →
  NodeSet`` operator tree of
  :func:`~repro.query.optimizer.assign_selection` (bottom-up
  strategy); a conjunct the containers' order answers exactly is not
  evaluated per binding at all, a ``contains`` is re-checked on the
  candidates only;
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
* everything that reaches the query result passes through an explicit
  decompression step, counted in
  :class:`~repro.query.context.EvaluationStats`.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from contextlib import nullcontext
from typing import NamedTuple

import numpy as np

from repro.errors import PlanVerificationError, QueryError, QueryTypeError
from repro.lint.plan import verify_plan
from repro.obs import runtime
from repro.obs.telemetry import Telemetry, span_on
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
from repro.query.batch import RecordBatch
from repro.query.context import (
    CompressedItem,
    EvaluationStats,
    NodeItem,
    _format_number,
    compare_items,
    effective_boolean,
    number_value,
    string_value,
)
from repro.query.functions import FUNCTIONS
from repro.query.options import ExecutionOptions
from repro.query.optimizer import (
    ClausePlan,
    FlworPlan,
    QueryPlan,
    bind_plan,
    plan_query,
)
from repro.query.parser import parse_query
from repro.query.physical import node_ids
from repro.storage.repository import CompressedRepository
from repro.storage.summary import TEXT_STEP
from repro.xmlio.dom import Element, Text
from repro.xmlio.writer import serialize


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
                 telemetry: Telemetry | None = None):
        self._raw_items = items
        self._materialized: list | None = None
        self.stats = stats
        self._engine = engine
        #: the traced run's tracer + metrics; ``None`` when untraced.
        self.telemetry = telemetry

    @property
    def items(self) -> list:
        """Fully decompressed result items (str/float/bool/Element).

        Materialized once and memoised — repeated access (``to_xml``
        after ``values``, the sequence protocol) must not redo — or
        double-count — the final Decompress step.
        """
        if self._materialized is not None:
            return self._materialized
        if self.telemetry is None:
            # No global activation on the untraced path: thread-pooled
            # batch runs materialize concurrently without touching the
            # process-wide runtime slot.
            self._materialized = [
                self._engine.materialize_item(item, self.stats)
                for item in self._raw_items]
            return self._materialized
        # Materialization is the final Decompress step; keep it under
        # the run's telemetry so codec activity lands in one registry.
        with runtime.activated(self.telemetry):
            with self.telemetry.span("Decompress"):
                self._materialized = [
                    self._engine.materialize_item(item, self.stats)
                    for item in self._raw_items]
        return self._materialized

    def values(self) -> list:
        """Items with Elements serialized to XML strings."""
        return [serialize(item) if isinstance(item, Element) else item
                for item in self.items]

    def ship(self) -> bytes:
        """Package the result *without decompressing* (§1: compressed
        results spare network bandwidth); unpack with
        :func:`repro.query.shipping.receive`."""
        from repro.query.shipping import ship
        return ship(self)

    def to_xml(self) -> str:
        """Serialize the whole result sequence as XML/text."""
        parts = []
        for item in self.items:
            if isinstance(item, Element):
                parts.append(serialize(item))
            elif isinstance(item, float):
                parts.append(_format_number(item))
            else:
                parts.append(str(item))
        return "\n".join(parts)

    def __len__(self) -> int:
        return len(self._raw_items)

    def __getitem__(self, index):
        return self.items[index]

    def __iter__(self):
        return iter(self.items)


class VerifiedPlan(NamedTuple):
    """A query's plan and what the Tier-A verifier found in its
    operator trees over one engine's repositories."""

    plan: QueryPlan
    diagnostics: list


class QueryEngine:
    """Plans, verifies and evaluates queries over compressed
    repositories.

    ``repository`` is the default document; ``collection`` optionally
    maps further document names to repositories, dispatched through
    ``document("name")/...`` paths (joins across documents included).
    """

    GUARDED_BY = {"_verify_cache": "_verify_lock"}

    def __init__(self, repository: CompressedRepository,
                 collection: dict[str, CompressedRepository]
                 | None = None, recorder=None):
        self.repository = repository
        self.collection = collection or {}
        #: optional :class:`~repro.obs.workload.WorkloadRecorder`;
        #: when attached and enabled, every ``execute`` appends one
        #: observation to its workload journal.
        self.recorder = recorder
        #: verified plans per parsed query (the AST is kept alive so
        #: its id() cannot be reused by a different expression).  LRU
        #: bounded: a long-lived serving engine must not pin every AST
        #: it ever planned.
        self._verify_cache: OrderedDict[
            int, tuple[Expression, VerifiedPlan]] = OrderedDict()
        self._verify_cache_capacity = 256
        self._verify_lock = threading.Lock()

    def repository_of(self, doc: str | None) -> CompressedRepository:
        """Repository for a document name (default when unknown)."""
        if doc is None:
            return self.repository
        return self.collection.get(doc, self.repository)

    def execute(self, query: str | Expression,
                options: ExecutionOptions | None = None,
                *, plan: VerifiedPlan | None = None,
                label: str | None = None) -> QueryResult:
        """Parse and plan (if needed) and evaluate a query.

        ``options`` is an :class:`~repro.query.options.ExecutionOptions`
        carrying the run's telemetry, recording and binding knobs; the
        run is traced exactly when ``options.telemetry`` is given.
        ``plan`` is ``query``'s :meth:`plan` from an earlier call (a
        prepared plan from the session's plan cache): the run skips
        planning and verification entirely.  Either way the Tier-A
        gate has passed before any row is produced; the verifier's
        warnings flow into a traced run's telemetry.  ``label`` names the
        run in spans and workload records when ``query`` is a
        pre-parsed expression (the session passes the original text).
        """
        if options is None:
            options = ExecutionOptions()
        ast = parse_query(query) if isinstance(query, str) else query
        telemetry = options.telemetry
        if plan is None:
            plan = self.plan(ast)
        if telemetry is not None:
            telemetry.diagnostics.extend(plan.diagnostics)
            for diagnostic in plan.diagnostics:
                telemetry.metrics.add(f"lint.{diagnostic.severity}")
        evaluator = _Evaluator(self, plan.plan, telemetry)
        query_text = query if isinstance(query, str) else \
            (label if label is not None else type(ast).__name__)
        base_env = options.binding_environment()

        def run() -> list:
            if telemetry is None:
                return evaluator.eval(ast, base_env)
            with runtime.activated(telemetry):
                with telemetry.span("Execute", query=query_text):
                    return evaluator.eval(ast, base_env)

        record = options.record
        if record is None:
            record = self.recorder is not None and self.recorder.enabled
        elif record and self.recorder is None:
            raise QueryError(
                "recording requested but no workload recorder is "
                "attached to this engine")
        with self.recorder.capture(
                query_text, ast, self.repository, evaluator.stats,
                telemetry) if record else nullcontext():
            items = run()
        return QueryResult(items, evaluator.stats, self,
                           telemetry=telemetry)

    def plan(self, query: str | Expression) -> VerifiedPlan:
        """The query's plan, past the Tier-A gate: error diagnostics
        raise :class:`~repro.errors.PlanVerificationError` — here, for
        ``execute`` and ``Session.prepare`` alike."""
        ast = parse_query(query) if isinstance(query, str) else query
        diagnostics = self.verify(ast)
        if any(d.severity == "error" for d in diagnostics):
            raise PlanVerificationError(diagnostics)
        return self._planned(ast)

    def verify(self, query: str | Expression) -> list:
        """The :class:`~repro.lint.PlanDiagnostic` list of the query's
        plan, errors included (``repro lint-plan`` prints them)."""
        return self._planned(query).diagnostics

    def _planned(self, query: str | Expression) -> VerifiedPlan:
        """Plan the query and run the Tier-A verifier over the plan's
        operator trees — every FLWOR, every absolute path — bound to
        this engine's repositories.  LRU-cached per parsed expression:
        verifying and then preparing one AST plans once."""
        ast = parse_query(query) if isinstance(query, str) else query
        with self._verify_lock:
            cached = self._verify_cache.get(id(ast))
            if cached is not None and cached[0] is ast:
                self._verify_cache.move_to_end(id(ast))
                return cached[1]
        plan = plan_query(ast)
        verified = VerifiedPlan(plan, [
            diagnostic for tree in bind_plan(plan, self.repository_of)
            for diagnostic in verify_plan(tree)])
        with self._verify_lock:
            self._verify_cache[id(ast)] = (ast, verified)
            while len(self._verify_cache) > self._verify_cache_capacity:
                self._verify_cache.popitem(last=False)
        return verified

    def explain(self, query: str | Expression) -> str:
        """Describe the evaluation strategy without running the query."""
        from repro.query.explain import explain
        return explain(query)

    def explain_analyze(self, query: str | Expression) -> str:
        """Run the query and render the plan with actual counts/timings.

        See :func:`repro.query.analyze.explain_analyze`; use that
        directly to also get the :class:`QueryResult` and telemetry.
        """
        from repro.query.analyze import explain_analyze
        return explain_analyze(query, self).text

    # -- result materialization ------------------------------------------------

    def materialize_item(self, item, stats: EvaluationStats):
        """Decompress one result item (the final Decompress step)."""
        if isinstance(item, CompressedItem):
            return item.decode(stats)
        if isinstance(item, NodeItem):
            return self.materialize_node(item.node_id, stats,
                                         doc=item.doc)
        return item

    def materialize_node(self, node_id: int,
                         stats: EvaluationStats,
                         doc: str | None = None) -> Element:
        """Rebuild a repository node as an XML element (XMLSerialize)."""
        repo = self.repository_of(doc)
        record = repo.structure.record(node_id)
        element = Element(repo.tag_of(node_id))
        for path, index in record.value_pointers:
            step = path.rsplit("/", 1)[-1]
            if step.startswith("@"):
                stats.decompressions += 1
                element.set_attribute(
                    step[1:], repo.container(path).value_at(index))
        for kind, ref in record.content_sequence:
            if kind == "elem":
                element.append(self.materialize_node(ref, stats,
                                                     doc=doc))
            else:
                path, index = record.value_pointers[ref]
                stats.decompressions += 1
                element.append(Text(repo.container(path).value_at(index)))
        return element


class _Evaluator:
    def __init__(self, engine: QueryEngine, plan: QueryPlan,
                 telemetry: Telemetry | None = None):
        self._engine = engine
        self._repo = engine.repository_of
        #: the evaluated query's plan: every FLWOR dispatches on it.
        self._flwors = plan.by_node()
        self.telemetry = telemetry
        # A traced run counts into its telemetry's stats, so every view
        # of the telemetry quotes QueryResult.stats.
        self.stats = telemetry.stats if telemetry is not None \
            else EvaluationStats()
        #: cached sequences for binding-independent source expressions.
        self._source_cache: dict[int, list] = {}
        #: built once per execution: theta joins by clause identity,
        #: equality-join matches by ``("join", clause identity)``,
        #: selected node ids by ``("selection", clause identity)``.
        self._index_cache: dict = {}

    # -- dispatch -------------------------------------------------------------

    def eval(self, expr: Expression, env: dict) -> list:
        method = self._DISPATCH.get(type(expr))
        if method is None:
            raise QueryError(f"cannot evaluate {type(expr).__name__}")
        return method(self, expr, env)

    def _eval_string(self, expr: StringLiteral, env: dict) -> list:
        return [expr.value]

    def _eval_number(self, expr: NumberLiteral, env: dict) -> list:
        return [expr.value]

    def _eval_text_literal(self, expr: TextLiteral, env: dict) -> list:
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
        if expr.op == "and":
            if not left:
                return [False]
            return [effective_boolean(self.eval(expr.right, env))]
        if left:
            return [True]
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
        if expr.name == "count" and len(expr.args) == 1 and \
                _returns_for_variable(expr.args[0]):
            # One item per binding: count bindings, and let a theta
            # join add whole slot ranges without binding them.
            counter = _BindingCounter()
            self._eval_flwor(expr.args[0], env, counter)
            return [float(counter.count)]
        if expr.name in self._SEQUENCE_FUNCTIONS:
            args = [self.eval(arg, env) for arg in expr.args]
        else:
            args = [self._atomize_sequence(self.eval(arg, env))
                    for arg in expr.args]
        return function(args, self.stats)

    # -- FLWOR ---------------------------------------------------------------------

    def _eval_flwor(self, expr: FLWOR, env: dict, sink=None) -> list:
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

        self._flwor_clause(self._flwors[id(expr)], 0, dict(env),
                           collect if sink is None else sink)
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
        ids, rest = self._join(step, env) if step.join is not None \
            else self._theta_range(step, env)
        if ids is None:
            ids, rest = self._selection(step)
        if ids is None:
            for item in self._clause_items(step, env):
                self._bind_and_descend(plan, index, env, item,
                                       step.decidable, results)
            return
        if isinstance(results, _BindingCounter) and not rest and \
                not plan.residual and index + 1 == len(plan.clauses):
            results.count += len(ids)
            return
        if isinstance(ids, np.ndarray):
            # A theta join's slots are in value order; bindings leave
            # in document order (the other strategies' ids already do).
            ids = np.sort(ids).tolist()
        document = clause.source.document
        for node_id in ids:
            self._bind_and_descend(plan, index, env,
                                   NodeItem(node_id, document), rest,
                                   results)

    def _bind_and_descend(self, plan: FlworPlan, index: int, env: dict,
                          item, conjuncts, results) -> None:
        child_env = dict(env)
        child_env[plan.clauses[index].clause.var] = [item]
        for conjunct in conjuncts:
            if not effective_boolean(self.eval(conjunct, child_env)):
                return
        self._flwor_clause(plan, index + 1, child_env, results)

    def _selection(self, step: ClausePlan):
        """``(node ids, conjuncts left to check)`` of a clause whose
        constant selections run as one operator tree on the containers
        (:func:`~repro.query.optimizer.assign_selection`), ``(None,
        None)`` for per-binding evaluation.  The source is absolute and
        the terms constant, so a clause re-entered per outer binding
        selects once per execution."""
        if step.selection is None:
            return None, None
        key = ("selection", id(step))
        if key not in self._index_cache:
            found = step.bind_selection(self._repo, stats=self.stats)
            if found is None:
                self._index_cache[key] = (None, None)
            else:
                selection, operator = found
                exact = [t.conjunct for t in selection.terms if t.exact]
                with span_on(self.telemetry, "Selection",
                             terms=len(selection.terms)) as span:
                    ids = [node_id for batch in operator.batches()
                           for node_id in batch.column(
                               f"${step.clause.var}").ids.tolist()]
                    span.set_attribute("rows", len(ids))
                self._index_cache[key] = (ids, [
                    c for c in step.decidable
                    if not any(c is e for e in exact)])
        return self._index_cache[key]

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

    # -- equality joins ---------------------------------------------------------------

    def _join(self, step: ClausePlan, env: dict):
        """``(node ids, conjuncts left to check)`` of a clause whose
        equality join runs as one ``MergeJoin`` on the key containers
        (:func:`~repro.query.optimizer.assign_equi_join`), ``(None,
        None)`` for per-binding evaluation.  Both sides are absolute
        paths, so the join runs once per execution: the ids are the
        probe node's matches, each once, in document order."""
        key = ("join", id(step))
        if key not in self._index_cache:
            found = step.bind_join(self._repo, stats=self.stats)
            if found is not None:
                with span_on(self.telemetry, "MergeJoin.build") as span:
                    matches = _matches_by_probe(
                        found[1], f"${step.join.probe_vars[0]}",
                        f"${step.clause.var}")
                    span.set_attribute("rows", len(matches))
                found = matches, step.rest(step.join.conjunct)
            self._index_cache[key] = found
        if self._index_cache[key] is None:
            return None, None
        matches, rest = self._index_cache[key]
        (probe,) = env[step.join.probe_vars[0]]
        return matches.get(probe.node_id, ()), rest

    # -- theta joins ------------------------------------------------------------------

    def _theta_range(self, step: ClausePlan, env: dict):
        """``(owners, conjuncts left to check)``: the owners of the slot
        range of the clause's theta join matching this binding, in value
        order; ``(None, None)`` for the nested loop.  Assigned and built
        once per execution."""
        if not step.thetas:
            return None, None
        if id(step) not in self._index_cache:
            found = step.bind_theta(self._repo, stats=self.stats)
            if found is not None:
                with span_on(self.telemetry, "ThetaJoin.build"):
                    if not found[1].build():
                        found = None
            self._index_cache[id(step)] = found
        if self._index_cache[id(step)] is None:
            return None, None
        plan, join = self._index_cache[id(step)]
        try:
            items = self._atomize_sequence(
                self.eval(plan.probe_expr, env))
        except QueryError:
            # The nested loop raises it, if it gets there.
            return None, None
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
                return None, None
            values.append(item)
        # Existential over the probe values: the widest range, a
        # prefix of the sorted keys for < / <=, a suffix for > / >=.
        start, end = (0, 0) if not values else join.probe(
            max(values) if plan.op in ("<", "<=") else min(values))
        return join.owners[start:end], step.rest(plan.conjunct)

    # -- paths ------------------------------------------------------------------------

    def _eval_path(self, expr: PathExpr, env: dict) -> list:
        if expr.start is not None:
            start_items = self.eval(expr.start, env)
            return self._apply_steps(start_items, expr.steps, env)
        repo = self._repo(expr.document)
        if not len(repo.structure):
            return []
        steps = list(expr.steps)
        # StructureSummaryAccess fast path: resolve the longest
        # predicate-free element-step prefix against the path summary
        # and jump straight to its extents (Figure 4) instead of
        # navigating the structure tree.
        prefix: list[Step] = []
        while steps and not steps[0].predicates and \
                steps[0].axis in ("child", "descendant") and \
                steps[0].test != "text()":
            prefix.append(steps.pop(0))
        if prefix:
            self.stats.summary_accesses += 1
            summary_steps = [(s.axis, s.test) for s in prefix]
            with span_on(self.telemetry,
                         "StructureSummaryAccess") as span:
                nodes = repo.resolve_path(summary_steps)
                ids = sorted({i for n in nodes for i in n.extent})
                span.set_attribute("rows", len(ids))
            context: list = [NodeItem(i, expr.document) for i in ids]
        else:
            context = self._document_step(steps.pop(0), env,
                                          expr.document)
        return self._apply_steps(context, steps, env)

    def _document_step(self, step: Step, env: dict,
                       doc: str | None) -> list:
        """First step of an absolute path, from the document node."""
        repo = self._repo(doc)
        root_tag = repo.tag_of(0)
        items: list = []
        if step.axis == "child":
            if _test_matches_root(step, root_tag):
                items = [NodeItem(0, doc)]
        elif step.axis == "descendant":
            ids = []
            if _test_matches_root(step, root_tag):
                ids.append(0)
            tag_code = (None if step.test == "*"
                        else repo.dictionary.code_of(step.test))
            if step.test == "*" or tag_code is not None:
                ids.extend(repo.structure.descendants_of(0, tag_code))
            items = [NodeItem(i, doc) for i in sorted(set(ids))]
        if step.predicates:
            items = self._filter_predicates(items, step.predicates, env)
        return items

    def _apply_steps(self, context: list, steps, env: dict) -> list:
        for step in steps:
            context = self._apply_step(context, step, env)
        return context

    def _apply_step(self, context: list, step: Step, env: dict) -> list:
        output: list = []
        seen: set[int] = set()
        for item in context:
            if isinstance(item, NodeItem):
                for result in self._step_from_node(item, step):
                    if isinstance(result, NodeItem):
                        key = (result.node_id, result.doc)
                        if key in seen:
                            continue
                        seen.add(key)
                    output.append(result)
            elif isinstance(item, Element):
                output.extend(self._step_from_element(item, step))
            # Atomic items have no children: step yields nothing.
        if step.predicates:
            output = self._filter_predicates(output, step.predicates, env)
        return output

    def _step_from_node(self, item: NodeItem, step: Step) -> list:
        repo = self._repo(item.doc)
        structure = repo.structure
        node_id = item.node_id
        if step.axis == "attribute":
            return self._node_values(item, "@" + step.test)
        if step.test == "text()":
            if step.axis == "descendant":
                items: list = []
                for descendant in [node_id] + \
                        structure.descendants_of(node_id):
                    items.extend(self._node_values(
                        NodeItem(descendant, item.doc), TEXT_STEP))
                return items
            return self._node_values(item, TEXT_STEP)
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

    def _node_values(self, item: NodeItem, step_name: str) -> list:
        """Attribute/text values of one node, as CompressedItems."""
        repo = self._repo(item.doc)
        record = repo.structure.record(item.node_id)
        suffix = "/" + step_name
        items: list = []
        for path, index in record.value_pointers:
            if path.endswith(suffix):
                container = repo.container(path)
                items.append(CompressedItem(
                    container.record_at(index).compressed,
                    container.codec, container.value_type))
        return items

    def _step_from_element(self, element: Element, step: Step) -> list:
        if step.axis == "attribute":
            value = element.attribute(step.test)
            return [] if value is None else [value]
        if step.test == "text()":
            return [child.value for child in element.children
                    if isinstance(child, Text)]
        if step.axis == "child":
            candidates = element.child_elements(
                None if step.test == "*" else step.test)
        else:
            candidates = list(element.descendants(
                None if step.test == "*" else step.test))
        return list(candidates)

    def _filter_predicates(self, items: list, predicates, env: dict
                           ) -> list:
        for predicate in predicates:
            if isinstance(predicate, NumberLiteral):
                position = int(predicate.value)
                items = ([items[position - 1]]
                         if 1 <= position <= len(items) else [])
                continue
            filtered = []
            for item in items:
                child_env = dict(env)
                child_env["."] = item
                if effective_boolean(self.eval(predicate, child_env)):
                    filtered.append(item)
            items = filtered
        return items

    # -- constructors --------------------------------------------------------------------

    def _eval_constructor(self, expr: ElementConstructor,
                          env: dict) -> list:
        element = Element(expr.name)
        for name, parts in expr.attributes:
            rendered = []
            for part in parts:
                if isinstance(part, TextLiteral):
                    rendered.append(part.value)
                else:
                    rendered.append(" ".join(
                        string_value(self._atomize(i), self.stats)
                        for i in self.eval(part, env)))
            element.set_attribute(name, "".join(rendered))
        for content in expr.content:
            if isinstance(content, TextLiteral):
                element.append(Text(content.value))
                continue
            for item in self.eval(content, env):
                self._append_content(element, item)
        return [element]

    def _append_content(self, element: Element, item) -> None:
        if isinstance(item, NodeItem):
            element.append(self._engine.materialize_node(
                item.node_id, self.stats, doc=item.doc))
        elif isinstance(item, Element):
            element.append(item)
        elif isinstance(item, Text):
            element.append(item)
        else:
            element.append(Text(string_value(
                self._atomize(item), self.stats)))

    # -- atomization --------------------------------------------------------------------

    def _atomize(self, item):
        """Typed value of one item; nodes atomize to their text.

        A node with exactly one text child atomizes to the *compressed*
        item, keeping later comparisons in the compressed domain.
        """
        if isinstance(item, NodeItem):
            values = self._node_values(item, TEXT_STEP)
            repo = self._repo(item.doc)
            if len(values) == 1 and not \
                    repo.structure.record(item.node_id).children:
                return values[0]
            self.stats.decompressions += 1
            return repo.full_text_of(item.node_id)
        if isinstance(item, Element):
            return item.text()
        return item

    def _atomize_sequence(self, items: list) -> list:
        return [self._atomize(item) for item in items]

    _DISPATCH = {
        StringLiteral: _eval_string,
        NumberLiteral: _eval_number,
        TextLiteral: _eval_text_literal,
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
    matches: dict[int, set] = {}
    for batch in map(RecordBatch.compact, join.batches()):
        for probe_id, build_id in zip(node_ids(batch, probe).tolist(),
                                      node_ids(batch, build).tolist()):
            matches.setdefault(probe_id, set()).add(build_id)
    return {probe_id: sorted(ids) for probe_id, ids in matches.items()}


class _BindingCounter:
    """FLWOR sink of ``count(for … return $forvar)``: one item per
    binding, so whole matching ranges can be added unbound."""

    count = 0

    def __call__(self, env: dict) -> None:
        self.count += 1


def _returns_for_variable(expr: Expression) -> bool:
    """An unordered FLWOR returning one of its for-clause variables:
    exactly one item per binding, nothing else evaluated for it."""
    if not isinstance(expr, FLWOR) or expr.order or \
            not isinstance(expr.result, VarRef):
        return False
    binders = [c for c in expr.clauses if c.var == expr.result.name]
    return bool(binders) and isinstance(binders[-1], ForClause)


def _test_matches_root(step: Step, root_tag: str) -> bool:
    return step.test == "*" or step.test == root_tag


