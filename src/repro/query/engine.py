"""The XQueC query evaluation engine.

Evaluates the supported XQuery subset directly over a
:class:`~repro.storage.repository.CompressedRepository`, keeping values
compressed for as long as possible:

* absolute paths resolve through the structure summary
  (``StructureSummaryAccess``) — never by walking the full structure
  tree (Figure 4);
* a for-clause's constant selections — ``$v/leaf op constant``,
  ``empty($v/leaf)``, predicates on the source's last step — run once,
  as the ``ContAccess → Parent → NodeSet`` operator tree of
  :func:`~repro.query.optimizer.assign_selection` (bottom-up
  strategy); a conjunct the containers' order answers exactly is not
  evaluated per binding at all;
* equality joins between binding variables run as hash joins with
  cacheable build sides (:class:`~repro.query.optimizer.JoinPlan`)
  over *decoded* keys (``_key_strings``): a default load trains one
  codec per container, so the two sides' codewords do not compare;
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

import numpy as np

from repro.errors import QueryError, QueryTypeError
from repro.obs import runtime
from repro.obs.telemetry import Telemetry
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
    assign_selection,
    assign_theta_join,
    context_free,
    find_join_plan,
    flatten_conjuncts,
    free_vars,
    leaf_summary_steps,
)
from repro.query.parser import parse_query
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
        #: the run's tracer + metrics (disabled unless requested).
        self.telemetry = telemetry if telemetry is not None \
            else Telemetry(enabled=False, metrics=stats.registry)

    @property
    def items(self) -> list:
        """Fully decompressed result items (str/float/bool/Element).

        Materialized once and memoised — repeated access (``to_xml``
        after ``values``, the sequence protocol) must not redo — or
        double-count — the final Decompress step.
        """
        if self._materialized is not None:
            return self._materialized
        if not self.telemetry.enabled:
            # No global activation on the disabled path: thread-pooled
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
        out = []
        for item in self.items:
            if isinstance(item, Element):
                out.append(serialize(item))
            else:
                out.append(item)
        return out

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


class QueryEngine:
    """Compiles and evaluates queries over compressed repositories.

    ``repository`` is the default document; ``collection`` optionally
    maps further document names to repositories, dispatched through
    ``document("name")/...`` paths (joins across documents included).
    """

    GUARDED_BY = {"_verify_cache": "_verify_lock"}

    def __init__(self, repository: CompressedRepository,
                 collection: dict[str, CompressedRepository]
                 | None = None, telemetry_enabled: bool = False,
                 verify_plans: bool = True, recorder=None):
        self.repository = repository
        self.collection = collection or {}
        #: when True, every ``execute`` records spans and histograms;
        #: counters are always kept (they back ``QueryResult.stats``).
        self.telemetry_enabled = telemetry_enabled
        #: optional :class:`~repro.obs.workload.WorkloadRecorder`;
        #: when attached and enabled, every ``execute`` appends one
        #: observation to its workload journal.
        self.recorder = recorder
        #: when True, the Tier-A plan verifier gates every ``execute``:
        #: error diagnostics raise
        #: :class:`~repro.errors.PlanVerificationError` before any row
        #: is produced; warnings flow into the run's telemetry.
        self.verify_plans = verify_plans
        self._fulltext_indexes: dict[str, "FullTextIndex"] = {}
        #: verifier results per parsed query (the AST is kept alive so
        #: its id() cannot be reused by a different expression).  LRU
        #: bounded: a long-lived serving engine must not pin every AST
        #: it ever verified.
        self._verify_cache: OrderedDict[int, tuple[Expression, list]] \
            = OrderedDict()
        self._verify_cache_capacity = 256
        self._verify_lock = threading.Lock()

    def repository_of(self, doc: str | None) -> CompressedRepository:
        """Repository for a document name (default when unknown)."""
        if doc is None:
            return self.repository
        return self.collection.get(doc, self.repository)

    def build_fulltext_index(self, container_path: str):
        """Build (and register) a §6 full-text index on a container.

        Subsequent ``word-contains`` conjuncts over that container use
        the inverted index as an access path.
        """
        from repro.query.fulltext import FullTextIndex
        index = FullTextIndex.build(
            self.repository.container(container_path))
        self._fulltext_indexes[container_path] = index
        return index

    def execute(self, query: str | Expression,
                options: ExecutionOptions | None = None,
                *, diagnostics: list | None = None,
                label: str | None = None) -> QueryResult:
        """Parse (if needed) and evaluate a query.

        ``options`` is an :class:`~repro.query.options.ExecutionOptions`
        carrying the run's telemetry, recording and binding knobs.
        ``diagnostics`` lets a caller that already verified the query
        (a prepared plan from the session's plan cache) pass the
        verifier's findings in, skipping the static verification step
        entirely.  ``label`` names the run in
        spans and workload records when ``query`` is a pre-parsed
        expression (the session passes the original query text).
        """
        if options is None:
            options = ExecutionOptions()
        ast = parse_query(query) if isinstance(query, str) else query
        # Profiling needs open spans to attribute samples to, so a
        # profile request implies an enabled telemetry for the run.
        telemetry = options.resolve_telemetry(
            self.telemetry_enabled or bool(options.profile))
        if self.verify_plans:
            if diagnostics is None:
                diagnostics = self.verify(ast)
            errors = [d for d in diagnostics if d.severity == "error"]
            if errors:
                from repro.errors import PlanVerificationError
                raise PlanVerificationError(diagnostics)
            telemetry.diagnostics.extend(diagnostics)
            for diagnostic in diagnostics:
                telemetry.metrics.add(f"lint.{diagnostic.severity}")
        evaluator = _Evaluator(self.repository, self._fulltext_indexes,
                               self.collection, telemetry=telemetry)
        query_text = query if isinstance(query, str) else \
            (label if label is not None else type(ast).__name__)
        base_env = options.binding_environment()

        def run() -> list:
            if not telemetry.enabled:
                return evaluator.eval(ast, base_env)
            from repro.obs.profiler import profiled
            with runtime.activated(telemetry):
                with profiled(telemetry.tracer,
                              options.profile) as profiler:
                    with telemetry.span("Execute", query=query_text):
                        items = evaluator.eval(ast, base_env)
                if profiler is not None:
                    telemetry.profile = profiler.profile
                return items

        record = options.record
        if record is None:
            record = self.recorder is not None and self.recorder.enabled
        elif record and self.recorder is None:
            raise QueryError(
                "recording requested but no workload recorder is "
                "attached to this engine")
        if record:
            with self.recorder.capture(query_text, ast,
                                       self.repository, telemetry):
                items = run()
        else:
            items = run()
        return QueryResult(items, evaluator.stats, self,
                           telemetry=telemetry)

    def verify(self, query: str | Expression) -> list:
        """Statically verify the plans a query would evaluate as.

        Compiles the optimizer's decisions into plan sketches and runs
        the Tier-A verifier over them; returns the
        :class:`~repro.lint.PlanDiagnostic` list (LRU-cached per parsed
        expression — ``execute`` calls this on every run).
        """
        ast = parse_query(query) if isinstance(query, str) else query
        with self._verify_lock:
            cached = self._verify_cache.get(id(ast))
            if cached is not None and cached[0] is ast:
                self._verify_cache.move_to_end(id(ast))
                return cached[1]
        from repro.lint.compile import verify_query
        diagnostics = verify_query(ast, self.repository,
                                   self.collection)
        with self._verify_lock:
            self._verify_cache[id(ast)] = (ast, diagnostics)
            while len(self._verify_cache) > self._verify_cache_capacity:
                self._verify_cache.popitem(last=False)
        return diagnostics

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
    def __init__(self, repository: CompressedRepository,
                 fulltext_indexes: dict | None = None,
                 collection: dict[str, CompressedRepository]
                 | None = None, telemetry: Telemetry | None = None):
        self.repository = repository
        self._collection = collection or {}
        self._fulltext_indexes = fulltext_indexes or {}
        self.telemetry = telemetry if telemetry is not None \
            else Telemetry(enabled=False)
        # The stats view and the telemetry share one registry, so
        # explain_analyze's rendered counters are EvaluationStats'.
        self.stats = EvaluationStats(registry=self.telemetry.metrics)
        #: cached sequences for binding-independent source expressions.
        self._source_cache: dict[int, list] = {}
        #: built once per execution: hash indexes by conjunct identity,
        #: theta-join classifications by clause identity, selected
        #: node ids by ``("selection", clause identity)``.
        self._index_cache: dict = {}

    def _repo(self, doc: str | None) -> CompressedRepository:
        if doc is None:
            return self.repository
        return self._collection.get(doc, self.repository)

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
        conjuncts = flatten_conjuncts(expr.where)
        if not expr.order:
            results: list = []
            if sink is None:
                sink = (lambda bound_env: results.extend(
                    self.eval(expr.result, bound_env)))
            self._flwor_clause(expr, 0, dict(env), conjuncts, set(env),
                               sink)
            return results
        # order by: collect (sort keys, result items) per binding,
        # then stable-sort from the last key to the first.
        keyed: list[tuple[tuple, list]] = []

        def ordered_sink(bound_env: dict) -> None:
            keys = tuple(self._order_key(spec.key, bound_env)
                         for spec in expr.order)
            keyed.append((keys, self.eval(expr.result, bound_env)))

        self._flwor_clause(expr, 0, dict(env), conjuncts, set(env),
                           ordered_sink)
        for position in range(len(expr.order) - 1, -1, -1):
            keyed.sort(key=lambda pair, p=position: pair[0][p],
                       reverse=expr.order[position].descending)
        out: list = []
        for _, items in keyed:
            out.extend(items)
        return out

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

    def _flwor_clause(self, flwor: FLWOR, index: int, env: dict,
                      pending: list[Expression], bound: set[str],
                      results) -> None:
        if index == len(flwor.clauses):
            for conjunct in pending:
                if not effective_boolean(self.eval(conjunct, env)):
                    return
            results(env)
            return
        clause = flwor.clauses[index]
        if isinstance(clause, LetClause):
            env = dict(env)
            env[clause.var] = self.eval(clause.source, env)
            self._flwor_clause(flwor, index + 1, env, pending,
                               bound | {clause.var}, results)
            return
        assert isinstance(clause, ForClause)
        # Partition the pending conjuncts into those decidable once this
        # clause's variable is bound, and the rest (pushed down later).
        decidable: list[Expression] = []
        later: list[Expression] = []
        new_bound = bound | {clause.var}
        for conjunct in pending:
            if free_vars(conjunct) <= new_bound:
                decidable.append(conjunct)
            else:
                later.append(conjunct)
        # Hash-join path: an equality conjunct between this variable and
        # already-bound ones, over a binding-independent source.
        join_plan = None
        for conjunct in decidable:
            join_plan = find_join_plan(conjunct, clause.var, bound)
            if join_plan is not None:
                join_conjunct = conjunct
                break
        if join_plan is not None and \
                not (free_vars(clause.source) & bound):
            items = self._clause_items(clause, env, bound)
            join_index = self._join_index(join_plan, clause, items)
            probe_keys = self._key_strings(join_plan.probe_expr, env)
            rest = [c for c in decidable if c is not join_conjunct]
            for key in probe_keys:
                for item in join_index.lookup(key):
                    self._bind_and_descend(flwor, index, env, clause,
                                           item, rest, later, new_bound,
                                           results)
            return
        # Theta-join path: an inequality conjunct between this
        # variable's numeric path and already-bound ones is one binary
        # search on the sorted containers per outer binding.  Else the
        # clause's constant selections, decided once on the containers.
        theta = self._theta_range(clause, decidable, bound, env) \
            if decidable else None
        if theta is not None:
            conjunct, owners, start, end = theta
            rest = [c for c in decidable if c is not conjunct]
            ids = owners[start:end]
        else:
            ids, rest = self._selection(clause, decidable)
        if ids is not None:
            if isinstance(results, _BindingCounter) and not rest \
                    and not later and index + 1 == len(flwor.clauses):
                results.count += len(ids)
                return
            if theta is not None:
                # Slots are in value order; bindings leave in document
                # order (the selection's ids already are).
                ids = np.sort(ids).tolist()
            for node_id in ids:
                self._bind_and_descend(
                    flwor, index, env, clause,
                    NodeItem(node_id, clause.source.document), rest,
                    later, new_bound, results)
            return
        items = self._clause_items(clause, env, bound,
                                   conjuncts=decidable)
        for item in items:
            self._bind_and_descend(flwor, index, env, clause, item,
                                   decidable, later, new_bound, results)

    def _bind_and_descend(self, flwor: FLWOR, index: int, env: dict,
                          clause: ForClause, item,
                          decidable: list[Expression],
                          later: list[Expression], bound: set[str],
                          results: list) -> None:
        child_env = dict(env)
        child_env[clause.var] = [item]
        for conjunct in decidable:
            if not effective_boolean(self.eval(conjunct, child_env)):
                return
        self._flwor_clause(flwor, index + 1, child_env, later, bound,
                           results)

    def _selection(self, clause: ForClause,
                   decidable: list[Expression]):
        """``(node ids, conjuncts left to check)`` of a clause whose
        constant selections run as one operator tree on the containers
        (:func:`~repro.query.optimizer.assign_selection`), ``(None,
        None)`` for per-binding evaluation.  The source is absolute and
        the terms constant, so a clause re-entered per outer binding
        classifies, and selects, once per execution."""
        key = ("selection", id(clause))
        if key not in self._index_cache:
            found = assign_selection(clause, decidable, self._repo,
                                     stats=self.stats)
            if found is None:
                self._index_cache[key] = (None, None)
            else:
                plan, operator = found
                exact = [t.conjunct for t in plan.terms if t.exact]
                with self.telemetry.span("Selection",
                                         terms=len(plan.terms)) as span:
                    ids = [node_id for batch in operator.batches()
                           for node_id in
                           batch.column(f"${clause.var}").ids.tolist()]
                    span.set_attribute("rows", len(ids))
                self._index_cache[key] = (ids, [
                    c for c in decidable
                    if not any(c is e for e in exact)])
        return self._index_cache[key]

    def _clause_items(self, clause: ForClause, env: dict,
                      bound: set[str],
                      conjuncts: list[Expression] | None = None) -> list:
        """Items for a for-clause: a registered full-text index answers
        a ``word-contains`` conjunct (still re-checked afterwards); a
        binding-independent source is evaluated once."""
        if conjuncts:
            from repro.query.optimizer import find_fulltext_plan
            for conjunct in conjuncts:
                ft_plan = find_fulltext_plan(conjunct, clause.var)
                if ft_plan is not None:
                    items = self._fulltext_access(clause.source,
                                                  ft_plan)
                    if items is not None:
                        return items
        if free_vars(clause.source) & bound or \
                not context_free(clause.source):
            return self.eval(clause.source, env)
        cache_key = id(clause.source)
        cached = self._source_cache.get(cache_key)
        if cached is None:
            cached = self.eval(clause.source, env)
            self._source_cache[cache_key] = cached
        return cached

    def _fulltext_access(self, source: Expression, plan) -> list | None:
        """Inverted-index evaluation of a word-contains conjunct.

        Whole-word semantics make the index exact, so the candidate
        set *is* the answer set for the conjunct (which is still
        re-checked upstream, harmlessly).
        """
        from repro.query.optimizer import is_absolute_simple_path
        if not is_absolute_simple_path(source):
            return None
        if not self.telemetry.enabled:
            return self._fulltext_access_inner(source, plan)
        with self.telemetry.span("FullTextAccess",
                                 words=sorted(plan.words)) as span:
            items = self._fulltext_access_inner(source, plan)
            span.set_attribute("rows", len(items)
                               if items is not None else "fallback")
            return items

    def _fulltext_access_inner(self, source: Expression,
                               plan) -> list | None:
        assert isinstance(source, PathExpr)
        if source.document is not None:
            return None  # indexes are registered on the default document
        leaves = self.repository.resolve_path(
            leaf_summary_steps(source, plan.leaf_steps))
        if not leaves:
            return []
        structure = self.repository.structure
        matched: set[int] = set()
        for leaf in leaves:
            if leaf.container_path is None:
                return None
            index = self._fulltext_indexes.get(leaf.container_path)
            if index is None:
                return None  # no index on this container: evaluate plainly
            self.stats.container_accesses += 1
            for parent_id in index.lookup_all(list(plan.words)):
                node_id = parent_id
                for _ in range(plan.ascend):
                    up = structure.parent_of(node_id)
                    if up is None:
                        break
                    node_id = up
                matched.add(node_id)
        self.stats.summary_accesses += 1
        return [NodeItem(node_id) for node_id in sorted(matched)]

    # -- hash joins -------------------------------------------------------------------

    def _join_index(self, plan, clause: ForClause, items: list
                    ) -> "_JoinIndex":
        # ``items`` of a context-dependent source is a fresh list per
        # evaluation: only the condition under which _clause_items
        # memoises the sequence makes the index reusable.
        cacheable = context_free(clause.source)
        index = self._index_cache.get(id(plan.conjunct)) \
            if cacheable else None
        if index is None:
            index = _JoinIndex()
            self.stats.hash_joins += 1
            with self.telemetry.span("HashJoin.build",
                                     rows=len(items)):
                for item in items:
                    child_env = {clause.var: [item]}
                    for key in self._key_strings(plan.build_expr,
                                                 child_env):
                        index.add(key, item)
            if cacheable:
                self._index_cache[id(plan.conjunct)] = index
        return index

    def _key_strings(self, expr: Expression, env: dict) -> list[str]:
        """Join-key values of an expression, as canonical strings."""
        keys = []
        for item in self._atomize_sequence(self.eval(expr, env)):
            keys.append(string_value(item, self.stats))
        return keys

    # -- theta joins ------------------------------------------------------------------

    def _theta_range(self, clause: ForClause,
                     decidable: list[Expression], bound: set[str],
                     env: dict):
        """``(conjunct, owners, start, end)``: the slot range of the
        clause's theta join matching this binding; ``None`` for the
        nested loop.  Classified and built once per execution."""
        if id(clause) not in self._index_cache:
            found = assign_theta_join(clause, decidable, bound,
                                      self._repo, stats=self.stats)
            if found is not None:
                with self.telemetry.span("ThetaJoin.build"):
                    if not found[1].build():
                        found = None
            self._index_cache[id(clause)] = found
        if self._index_cache[id(clause)] is None:
            return None
        plan, join = self._index_cache[id(clause)]
        try:
            items = self._atomize_sequence(
                self.eval(plan.probe_expr, env))
        except QueryError:
            return None  # the nested loop raises it, if it gets there
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
        start, end = (0, 0) if not values else join.probe(
            max(values) if plan.op in ("<", "<=") else min(values))
        return plan.conjunct, join.owners, start, end

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
            with self.telemetry.span("StructureSummaryAccess") as span:
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
            engine = QueryEngine(self.repository, self._collection)
            element.append(
                engine.materialize_node(item.node_id, self.stats,
                                        doc=item.doc))
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


class _JoinIndex:
    """String-keyed build index for FLWOR hash joins."""

    def __init__(self):
        self._buckets: dict[str, list] = {}

    def add(self, key: str, item) -> None:
        self._buckets.setdefault(key, []).append(item)

    def lookup(self, key: str) -> list:
        return self._buckets.get(key, [])


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


