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
  touching the parser, the planner or the plan verifier again —
  :meth:`Session.explain`, :meth:`Session.analyze` and the slow log
  render that same :class:`~repro.query.engine.PreparedPlan`;
* every textual ``execute`` goes through the LRU **plan cache** keyed
  on normalized query text — a warm hit skips parse + planning +
  verification entirely (``cache.plan.hit`` counts it);
* the engine underneath evaluates over a
  :class:`~repro.service.blocks.CachedRepositoryView`, so decoded
  container records and structure-summary resolutions are memoised in
  the byte-budgeted **block cache**;
* :meth:`Session.execute_many` serves a batch from a thread pool,
  sharing both caches and the session's thread-safe metrics registry;
* telemetry and plan verification both flow through this one code
  path — the CLI and the benchmarks are thin callers of it.
"""

from __future__ import annotations

import threading
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

from repro.obs.metrics import MetricsRegistry
from repro.query.ast import Expression
from repro.query.engine import PreparedPlan, QueryEngine, QueryResult
from repro.query.options import ExecutionOptions
from repro.service.blocks import CachedRepositoryView
from repro.service.cache import (
    DEFAULT_BLOCK_BUDGET,
    DEFAULT_PLAN_CAPACITY,
    BlockCache,
    PlanCache,
    normalize_query_text,
)
from repro.service.slowlog import (
    SlowQueryLog,
    snapshot_cache_counters,
)
from repro.storage.repository import CompressedRepository
from repro.util.clock import elapsed_ns, now_ns


class PreparedQuery:
    """A planned, verified query bound to a session, ready to re-run:
    the session's :class:`~repro.query.engine.PreparedPlan` (``plan``)
    and the session it runs on."""

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
        return self.plan.diagnostics

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

    All caches and the metrics registry are shared by every query the
    session runs — including the worker threads of
    :meth:`execute_many` — and all of them are thread-safe.

    The caches are sized by ``DEFAULT_PLAN_CAPACITY`` and
    ``DEFAULT_BLOCK_BUDGET``, or injected pre-built via
    ``plan_cache=``/``block_cache=`` to share across sessions, the way
    :class:`Database` does.
    """

    GUARDED_BY = {"_raw_engine": "_engine_lock"}

    def __init__(self, repository: CompressedRepository,
                 collection: dict[str, CompressedRepository]
                 | None = None, *,
                 plan_cache: PlanCache | None = None,
                 block_cache: BlockCache | None = None,
                 metrics: MetricsRegistry | None = None,
                 slow_log: SlowQueryLog | None = None):
        self.repository = repository
        self.collection = dict(collection) if collection else {}
        self.metrics = metrics if metrics is not None \
            else MetricsRegistry()
        self.plan_cache = plan_cache if plan_cache is not None \
            else PlanCache(DEFAULT_PLAN_CAPACITY, metrics=self.metrics)
        self.block_cache = block_cache if block_cache is not None \
            else BlockCache(DEFAULT_BLOCK_BUDGET, metrics=self.metrics)
        #: over-threshold executions append here (usually the owning
        #: Database's shared log); None disables slow-query logging.
        self.slow_log = slow_log
        self._view = CachedRepositoryView(repository, self.block_cache)
        self.engine = QueryEngine(
            self._view, collection=self.collection or None)
        self._raw_engine: QueryEngine | None = None
        self._engine_lock = threading.Lock()

    # -- preparing -----------------------------------------------------------

    def prepare(self, query: str | Expression,
                use_cache: bool = True) -> PreparedQuery:
        """Parse + plan + statically verify once; re-run many times.

        Textual queries go through the plan cache (keyed on normalized
        text); a hit returns without touching the parser, the planner
        or the verifier.  Verification *errors* surface here, at
        prepare time (:meth:`~repro.query.engine.PreparedPlan.checked`
        raises them) — a plan that cannot run is never cached.
        """
        self.metrics.add("session.prepares")
        return PreparedQuery(self, self._plan_of(query, use_cache)
                             .checked())

    def _plan_of(self, query: str | Expression,
                 use_cache: bool = True) -> PreparedPlan:
        """The session's plan of ``query``: the plan cache's, else
        planned and verified now — and cached unless it failed."""
        if isinstance(query, Expression):
            return self.engine.prepare(query)
        key = normalize_query_text(query)
        if use_cache:
            plan = self.plan_cache.get(key)
            if plan is not None:
                return plan
        self.metrics.add("session.parses")
        plan = self.engine.prepare(query)
        if use_cache and not plan.has_errors:
            self.plan_cache.put(key, plan)
        return plan

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
        sampled per-run telemetry works (each run reports only into
        its own).
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
            result = engine.execute(prepared.plan, options)
            failed = False
            return result
        finally:
            # Failed runs are logged too: a query that errors out
            # still occupied the session.
            if slow_log is not None:
                slow_log.maybe_record(
                    query=prepared.text, plan=prepared.plan,
                    wall_ns=elapsed_ns(start_ns),
                    telemetry=options.telemetry,
                    cache_before=cache_before,
                    cache_after=snapshot_cache_counters(self.metrics),
                    error=failed)

    def _engine_for(self, options: ExecutionOptions) -> QueryEngine:
        if options.use_block_cache:
            return self.engine
        with self._engine_lock:
            if self._raw_engine is None:
                self._raw_engine = QueryEngine(
                    self.repository,
                    collection=self.collection or None)
            return self._raw_engine

    # -- explain / analyze ---------------------------------------------------

    def explain(self, query: str | Expression) -> str:
        """Describe the evaluation strategy without running the query:
        the session's plan of it (cached or planned now), rendered —
        error diagnostics included."""
        from repro.query.explain import explain
        return explain(self._plan_of(query))

    def analyze(self, query: str | Expression,
                options: ExecutionOptions | None = None):
        """``EXPLAIN ANALYZE`` of the session's prepared plan (plan
        cache included) on the engine ``options`` selects: returns the
        full :class:`~repro.query.analyze.AnalyzeReport`."""
        from repro.query.analyze import explain_analyze
        options = options if options is not None else ExecutionOptions()
        prepared = self.prepare(query, use_cache=options.use_plan_cache)
        return explain_analyze(prepared.plan, self._engine_for(options),
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

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        """Nothing to release: a session holds no file or thread."""

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
                 metrics: MetricsRegistry | None = None,
                 slow_log: SlowQueryLog | None = None):
        self.repository = repository
        self.collection = dict(collection) if collection else {}
        self.metrics = metrics if metrics is not None \
            else MetricsRegistry()
        self.plan_cache = PlanCache(DEFAULT_PLAN_CAPACITY,
                                    metrics=self.metrics)
        self.block_cache = BlockCache(DEFAULT_BLOCK_BUDGET,
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
        """Readiness: the repository is loaded.

        The telemetry endpoint's ``/ready`` answer — ``True`` once the
        structure tree is resident.  (``/health`` is liveness and always
        answers while the exporter thread runs.)
        """
        try:
            return (self.repository is not None
                    and len(self.repository.structure) > 0)
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
