"""``Database``/``Session``: the resident serving layer (tentpole).

The paper's processor (§4) assumes a *resident* compressed repository
answering many queries; this module is that assumption made concrete.
A :class:`Database` holds one loaded
:class:`~repro.storage.repository.CompressedRepository` plus the two
caches tied to it; a :class:`Session` is the unit of query serving over
it — the one public way to run queries:

* :meth:`Session.prepare` parses, plans and statically verifies a
  query **once**, returning a :class:`PreparedQuery` that re-runs any
  number of times (optionally under fresh constant bindings) without
  touching the parser, the planner or the plan verifier again;
* every textual ``execute`` goes through the LRU **plan cache** keyed
  on normalized query text — a warm hit skips parse + planning +
  verification entirely (``cache.plan.hit`` counts it);
* the engine underneath evaluates over a
  :class:`~repro.service.blocks.CachedRepositoryView`, so decoded
  container records and structure-summary resolutions are memoised in
  the byte-budgeted **block cache**;
* :meth:`Session.execute_many` serves a batch from a thread pool,
  sharing both caches and the session's thread-safe metrics registry;
* workload recording, telemetry and plan verification all flow through
  this one code path — the system facade, the CLI and the benchmarks
  are thin callers of it.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

from repro.obs.metrics import MetricsRegistry
from repro.obs.workload import WorkloadRecorder
from repro.query.ast import Expression
from repro.query.engine import QueryEngine, QueryResult, VerifiedPlan
from repro.query.options import ExecutionOptions
from repro.query.parser import parse_query
from repro.service.blocks import CachedRepositoryView
from repro.service.cache import (
    DEFAULT_BLOCK_BUDGET,
    DEFAULT_PLAN_CAPACITY,
    BlockCache,
    PlanCache,
    normalize_query_text,
)
from repro.service.slo import (
    classify_query,
    observe_latency,
    slo_report,
)
from repro.service.slowlog import (
    SlowQueryLog,
    snapshot_cache_counters,
)
from repro.storage.repository import CompressedRepository
from repro.util.clock import elapsed_ns, now_ns


class PreparedPlan:
    """The cacheable product of parse + planning + verification: the
    AST and its :class:`~repro.query.engine.VerifiedPlan`, the very
    object every run executes.

    Holds no session reference, so one plan cache can back several
    sessions over the same repository; a :class:`PreparedQuery` binds a
    plan to the session it will run on.
    """

    __slots__ = ("key", "text", "ast", "verified", "query_class")

    def __init__(self, key: str | None, text: str | None,
                 ast: Expression, verified: VerifiedPlan):
        self.key = key
        self.text = text
        self.ast = ast
        self.verified = verified
        #: SLO bucket the plan's serving latencies are filed under
        #: (computed once here, reused by every cached-plan run).
        self.query_class = classify_query(ast)

    def __repr__(self) -> str:
        return f"<PreparedPlan {self.text or type(self.ast).__name__!r}>"


class PreparedQuery:
    """A planned, verified query bound to a session, ready to re-run."""

    __slots__ = ("session", "plan")

    def __init__(self, session: "Session", plan: PreparedPlan):
        self.session = session
        self.plan = plan

    @property
    def text(self) -> str | None:
        """The original query text (``None`` for AST-prepared ones)."""
        return self.plan.text

    @property
    def ast(self) -> Expression:
        """The parsed expression the plan evaluates."""
        return self.plan.ast

    @property
    def diagnostics(self) -> list:
        """The static verifier's findings, computed at prepare time."""
        return self.plan.verified.diagnostics

    def run(self, options: ExecutionOptions | None = None, *,
            bindings: dict | None = None) -> QueryResult:
        """Execute the prepared plan (parse/plan/verify already paid).

        ``bindings`` rebinds external ``$variables`` to new constants
        for this run only — the prepared-statement idiom: one plan,
        many parameterizations.
        """
        if options is None:
            options = ExecutionOptions()
        if bindings is not None:
            merged = dict(options.bindings or {})
            merged.update(bindings)
            options = replace(options, bindings=merged)
        return self.session._run(self, options)

    def __repr__(self) -> str:
        return f"<PreparedQuery {self.text!r}>"


class Session:
    """One serving session over a resident compressed repository.

    All caches, the metrics registry and the workload recorder are
    shared by every query the session runs — including the worker
    threads of :meth:`execute_many` — and all of them are thread-safe.

    Cache sizing knobs: ``plan_capacity`` bounds the number of resident
    prepared plans; ``block_budget`` bounds the approximate decoded
    bytes the block cache holds (both can also be injected pre-built
    via ``plan_cache=``/``block_cache=`` to share across sessions, the
    way :class:`Database` does).
    """

    GUARDED_BY = {"_raw_engine": "_engine_lock"}

    def __init__(self, repository: CompressedRepository,
                 collection: dict[str, CompressedRepository]
                 | None = None, *,
                 plan_cache: PlanCache | None = None,
                 block_cache: BlockCache | None = None,
                 plan_capacity: int = DEFAULT_PLAN_CAPACITY,
                 block_budget: int = DEFAULT_BLOCK_BUDGET,
                 metrics: MetricsRegistry | None = None,
                 journal=None,
                 recorder: WorkloadRecorder | None = None,
                 slow_log: SlowQueryLog | None = None):
        self.repository = repository
        self.collection = dict(collection) if collection else {}
        self.metrics = metrics if metrics is not None \
            else MetricsRegistry()
        self.plan_cache = plan_cache if plan_cache is not None \
            else PlanCache(plan_capacity, metrics=self.metrics)
        self.block_cache = block_cache if block_cache is not None \
            else BlockCache(block_budget, metrics=self.metrics)
        #: one recorder — and therefore one journal file handle — per
        #: session, however many queries it records.
        if recorder is None and journal is not None:
            recorder = WorkloadRecorder(journal)
        self.recorder = recorder
        #: over-threshold executions append here (usually the owning
        #: Database's shared log); None disables slow-query logging.
        self.slow_log = slow_log
        self._view = CachedRepositoryView(repository, self.block_cache)
        self.engine = QueryEngine(
            self._view, collection=self.collection or None,
            recorder=recorder)
        self._raw_engine: QueryEngine | None = None
        self._engine_lock = threading.Lock()
        #: serializes runs that activate the process-wide telemetry /
        #: recorder slots (tracing, workload capture) — those globals
        #: are not thread-local, so traced runs take turns while
        #: untraced runs stay fully parallel.
        self._activation_lock = threading.Lock()

    # -- preparing -----------------------------------------------------------

    def prepare(self, query: str | Expression,
                use_cache: bool = True) -> PreparedQuery:
        """Parse + plan + statically verify once; re-run many times.

        Textual queries go through the plan cache (keyed on normalized
        text); a hit returns without touching the parser, the planner
        or the verifier.  Verification *errors* surface here, at
        prepare time (:meth:`QueryEngine.plan` raises them) — a plan
        that cannot run is never cached.
        """
        self.metrics.add("session.prepares")
        if isinstance(query, Expression):
            return PreparedQuery(self, self._build_plan(None, None,
                                                        query))
        key = normalize_query_text(query)
        if use_cache:
            plan = self.plan_cache.get(key)
            if plan is not None:
                return PreparedQuery(self, plan)
        plan = self._build_plan(key, query, None)
        if use_cache:
            self.plan_cache.put(key, plan)
        return PreparedQuery(self, plan)

    def _build_plan(self, key: str | None, text: str | None,
                    ast: Expression | None) -> PreparedPlan:
        if ast is None:
            self.metrics.add("session.parses")
            ast = parse_query(text)
        return PreparedPlan(key, text, ast, self.engine.plan(ast))

    # -- executing -----------------------------------------------------------

    def execute(self, query: str | Expression,
                options: ExecutionOptions | None = None
                ) -> QueryResult:
        """The unified entry point: prepare (cached) + run."""
        if options is None:
            options = ExecutionOptions()
        # Snapshot cache counters before prepare(), not inside _run:
        # the plan-cache hit/miss of *this* query lands in prepare,
        # and the slow-query record's deltas should cover it.
        cache_before = snapshot_cache_counters(self.metrics) \
            if self.slow_log is not None else None
        prepared = self.prepare(query, use_cache=options.use_plan_cache)
        return self._run(prepared, options, cache_before=cache_before)

    def execute_many(self, queries: Sequence[str | Expression],
                     max_workers: int = 4,
                     options: ExecutionOptions | None = None
                     ) -> list[QueryResult]:
        """Serve a batch of queries from a thread pool.

        Results come back in input order and match what serial
        execution returns.  One shared ``options.telemetry`` cannot
        record N concurrent runs, so it is rejected; the slow log's
        sampled per-run telemetry and workload recording work, but
        serialize on the process-wide activation slot.
        """
        options = options if options is not None else ExecutionOptions()
        if options.telemetry is not None:
            raise ValueError(
                "execute_many cannot share one Telemetry across "
                "concurrent runs; trace single queries through "
                "execute()")
        self.metrics.add("session.batches")
        if max_workers <= 1 or len(queries) <= 1:
            return [self.execute(query, options) for query in queries]
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            return list(pool.map(
                lambda query: self.execute(query, options), queries))

    def _run(self, prepared: PreparedQuery,
             options: ExecutionOptions,
             cache_before: dict | None = None) -> QueryResult:
        engine = self._engine_for(options)
        record = options.record
        if record is None:
            record = self.recorder is not None and self.recorder.enabled
        # Slow-query exemplar sampling: every Nth execution runs with
        # a fresh per-run telemetry so an over-threshold run has a
        # span breakdown to attach.  Caller-provided telemetry serves
        # the same purpose for free.
        slow_log = self.slow_log
        if slow_log is not None:
            if cache_before is None:
                cache_before = snapshot_cache_counters(self.metrics)
            if options.telemetry is None:
                sampled = slow_log.maybe_sample()
                if sampled is not None:
                    options = replace(options, telemetry=sampled)
        self.metrics.add("session.executions")
        start_ns = now_ns()
        failed = True
        try:
            with self._activation_lock \
                    if options.telemetry is not None or record \
                    else nullcontext():
                result = engine.execute(
                    prepared.ast, options, plan=prepared.plan.verified,
                    label=prepared.plan.text)
            failed = False
            return result
        finally:
            # Per-class serving latency, failed runs included — a
            # query that errors out still occupied the session.
            wall_ns = elapsed_ns(start_ns)
            observe_latency(self.metrics, prepared.plan.query_class,
                            wall_ns)
            if slow_log is not None:
                slow_log.maybe_record(
                    query=prepared.plan.text, ast=prepared.ast,
                    query_class=prepared.plan.query_class,
                    wall_ns=wall_ns, telemetry=options.telemetry,
                    cache_before=cache_before,
                    cache_after=snapshot_cache_counters(self.metrics),
                    error=failed)

    def slo_report(self, objectives=None) -> dict:
        """Per-query-class latency quantiles + cache hit-rate gauges.

        ``objectives`` is an optional list of
        :class:`~repro.service.slo.LatencyObjective` targets to check;
        rendered by ``repro perf report``.
        """
        return slo_report(self.metrics, objectives)

    def _engine_for(self, options: ExecutionOptions) -> QueryEngine:
        if options.use_block_cache:
            return self.engine
        with self._engine_lock:
            if self._raw_engine is None:
                self._raw_engine = QueryEngine(
                    self.repository,
                    collection=self.collection or None,
                    recorder=self.recorder)
            return self._raw_engine

    # -- explain / analyze ---------------------------------------------------

    def explain(self, query: str | Expression) -> str:
        """Describe the evaluation strategy without running the query."""
        return self.engine.explain(query)

    def analyze(self, query: str | Expression,
                options: ExecutionOptions | None = None):
        """``EXPLAIN ANALYZE`` through the session (plan cache
        included): returns the full
        :class:`~repro.query.analyze.AnalyzeReport`."""
        from repro.query.analyze import explain_analyze
        prepared = self.prepare(
            query, use_cache=options.use_plan_cache
            if options is not None else True)
        with self._activation_lock:
            return explain_analyze(prepared.ast, self.engine,
                                   options=options)

    def explain_analyze(self, query: str | Expression) -> str:
        """The rendered ``EXPLAIN ANALYZE`` text."""
        return self.analyze(query).text

    # -- repository-level helpers -------------------------------------------

    def decompress(self) -> str:
        """Reconstruct the whole document as XML text."""
        from repro.query.context import EvaluationStats
        from repro.xmlio.writer import serialize
        element = self.engine.materialize_node(0, EvaluationStats())
        return serialize(element)

    def invalidate_caches(self) -> None:
        """Explicitly flush both caches (e.g. after swapping the
        repository a Database serves).

        Also drops every container's memoized ``as_arrays`` view: the
        block cache charged those views to its byte budget, so
        flushing the cache without dropping the memos would leave the
        arrays resident (and the next batch-mode access would
        resurrect them from the stale memo instead of rebuilding and
        re-charging them)."""
        self.plan_cache.invalidate()
        self.block_cache.invalidate()
        _drop_array_views(self.repository, self.collection)

    def close(self) -> None:
        """Release session resources (the recorder's journal handle)."""
        if self.recorder is not None:
            self.recorder.journal.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"<Session over {self.repository!r} "
                f"plan={self.plan_cache!r} block={self.block_cache!r}>")


def _drop_array_views(repository, collection) -> None:
    """Drop memoized container array views on a repository (and the
    collection documents served next to it)."""
    repository.drop_array_views()
    for other in (collection or {}).values():
        other.drop_array_views()


class Database:
    """A resident compressed database: repository + shared caches.

    The factory for sessions — every :meth:`session` shares the
    database's plan cache, block cache, metrics registry and (when
    configured) slow-query log, so a pool of serving sessions over one
    document warms one set of caches and feeds one telemetry plane.

    :meth:`serve_telemetry` starts the embedded HTTP exporter
    (``/metrics``, ``/health``, ``/ready``, ``/slowlog``) over that
    shared registry — the operational window into a resident serving
    process.
    """

    def __init__(self, repository: CompressedRepository,
                 collection: dict[str, CompressedRepository]
                 | None = None, *,
                 plan_capacity: int = DEFAULT_PLAN_CAPACITY,
                 block_budget: int = DEFAULT_BLOCK_BUDGET,
                 metrics: MetricsRegistry | None = None,
                 slow_log: SlowQueryLog | None = None):
        self.repository = repository
        self.collection = dict(collection) if collection else {}
        self.metrics = metrics if metrics is not None \
            else MetricsRegistry()
        self.plan_cache = PlanCache(plan_capacity,
                                    metrics=self.metrics)
        self.block_cache = BlockCache(block_budget,
                                      metrics=self.metrics)
        self.slow_log = slow_log
        if slow_log is not None and slow_log.metrics is None:
            slow_log.metrics = self.metrics
            self.metrics.set_gauge("slowlog.threshold_ms",
                                   slow_log.threshold_ms)
            self.metrics.set_gauge("slowlog.exemplar_rate",
                                   slow_log.exemplar_rate)
        #: the running telemetry exporter, while one is attached.
        self._telemetry_server = None
        self._started_ns = now_ns()

    @classmethod
    def open(cls, path: str | Path, **kwargs) -> "Database":
        """Open a serialized repository file (``.xqc``)."""
        from repro.storage.serialization import load_repository
        return cls(load_repository(Path(path)), **kwargs)

    @classmethod
    def from_xml(cls, xml_text: str, configuration=None,
                 **kwargs) -> "Database":
        """Load (and compress) an XML document into a database."""
        from repro.storage.loader import load_document
        return cls(load_document(xml_text,
                                 configuration=configuration), **kwargs)

    def session(self, **kwargs) -> Session:
        """A new session sharing this database's caches and metrics."""
        kwargs.setdefault("plan_cache", self.plan_cache)
        kwargs.setdefault("block_cache", self.block_cache)
        kwargs.setdefault("metrics", self.metrics)
        kwargs.setdefault("slow_log", self.slow_log)
        return Session(self.repository,
                       self.collection or None, **kwargs)

    def invalidate_caches(self) -> None:
        """Flush the shared plan and block caches *and* the per-
        container array memos they charged to their budget.

        Every session spawned by :meth:`session` shares these caches,
        so one call invalidates them for the whole database; the
        array-view memos live on the containers themselves and must be
        dropped here too or they survive eviction (see
        ``Session.invalidate_caches``)."""
        self.plan_cache.invalidate()
        self.block_cache.invalidate()
        _drop_array_views(self.repository, self.collection)

    # -- telemetry plane -----------------------------------------------------

    def uptime_ns(self) -> int:
        """Nanoseconds since this database was constructed."""
        return elapsed_ns(self._started_ns)

    def ready(self) -> bool:
        """Readiness: repository loaded and caches warm-capable.

        The telemetry endpoint's ``/ready`` answer — ``True`` once the
        structure tree is resident and both caches can accept entries.
        (``/health`` is liveness and always answers while the exporter
        thread runs.)
        """
        try:
            return (self.repository is not None
                    and len(self.repository.structure) > 0
                    and self.plan_cache.capacity >= 1
                    and self.block_cache.budget_bytes >= 1)
        except Exception:  # noqa: BLE001 - readiness must not raise
            return False

    def serve_telemetry(self, port: int = 0,
                        host: str = "127.0.0.1"):
        """Start the embedded telemetry endpoint; returns the server.

        ``port=0`` binds an ephemeral port (``server.port`` has the
        real one).  The returned
        :class:`~repro.service.telemetry_http.TelemetryServer` is a
        context manager; ``with db.serve_telemetry(9464):`` scrapes
        cleanly and shuts the exporter thread down on exit.  Also
        stopped by :meth:`stop_telemetry`.
        """
        from repro.service.telemetry_http import TelemetryServer
        if self._telemetry_server is not None \
                and not self._telemetry_server.closed:
            raise RuntimeError(
                "telemetry endpoint already serving on port "
                f"{self._telemetry_server.port}; stop it first")
        server = TelemetryServer(self, host=host, port=port)
        server.start()
        self._telemetry_server = server
        return server

    def stop_telemetry(self) -> None:
        """Stop the telemetry endpoint, if one is serving."""
        server = self._telemetry_server
        if server is not None:
            self._telemetry_server = None
            server.close()

    def __repr__(self) -> str:
        return f"<Database {self.repository!r}>"
