"""Sharded multi-process serving plane: scatter/gather over workers.

One :class:`ShardedDatabase` front door forks ``N`` worker processes,
each holding the repository (copy-on-write — fork shares the resident
compressed pages) behind its *own* :class:`~repro.service.session
.Database` — private plan cache, block cache and metrics registry.

Routing follows the structure-summary subtree placement chosen by
:func:`repro.partitioning.assign_shards`: the coordinator extracts the
absolute path roots of each query, maps their subtrees to owning
shards, and *prefers* the shard owning its driving subtree.  Every
worker holds the whole repository and answers every query (XQuery
joins reach across subtrees), so the workers form one pool: a query
runs on its routed worker when that worker is idle, otherwise on any
idle worker, otherwise on the first one to come free.  Sequential
traffic therefore stays on the routed worker and keeps its caches
warm; under load a worker also warms what it takes over from a busy
one.  A query whose roots span several shards is counted as
*cross-shard*: the telemetry that tells an operator when the
placement no longer matches the workload.  A worker whose process
died leaves the pool; the plane keeps answering while one is alive.

Results cross the process boundary through the §1 shipping frame
(:func:`repro.query.shipping.ship_result`): values and text content
travel as code bits naming their codec by digest, the coordinator
decodes them against the repository it forked the workers from, and
accounts bytes-on-the-wire against what plain decompressed shipping
would have cost.

Admission control guards the front door: a global in-flight limit plus
per-client quotas, refused work raising
:class:`~repro.errors.AdmissionError` before any worker is touched.

Sharded execution is result-identical to single-process serving — the
parity tests pin byte-identical ``to_xml()`` output for the full XMark
set at shard counts 1, 2 and 4.
"""

from __future__ import annotations

import dataclasses
import hashlib
import multiprocessing
import os
import signal
import threading
import time
from collections import OrderedDict
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor

import repro.errors as errors_module
from repro.errors import AdmissionError, ShardError, XQueCError
from repro.obs.metrics import MetricsRegistry
from repro.partitioning.sharding import ShardAssignment, assign_shards
from repro.query.ast import Expression, PathExpr
from repro.query.parser import parse_query
from repro.query.shipping import ReceivedResultSet, receive_result
from repro.service.cache import DEFAULT_PLAN_CAPACITY, \
    normalize_query_text
from repro.service.session import Database
from repro.util.clock import elapsed_ns, now_ns

#: seconds a worker waits between stop-flag checks while idle.
_POLL_S = 0.25
#: seconds the coordinator waits for a worker reply before declaring
#: the shard dead (generous — covers cold plan builds on tiny CI).
REPLY_TIMEOUT_S = 120.0


# -- admission control -------------------------------------------------------

class AdmissionController:
    """Global in-flight limit + per-client quotas at the front door.

    ``acquire`` either admits the query or raises
    :class:`~repro.errors.AdmissionError` immediately — the serving
    plane sheds load instead of queueing unboundedly.  Thread-safe;
    one instance guards one :class:`ShardedDatabase`.
    """

    def __init__(self, max_inflight: int = 64,
                 per_client: int = 8):
        if max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {max_inflight}")
        if per_client < 1:
            raise ValueError(
                f"per_client must be >= 1, got {per_client}")
        self.max_inflight = max_inflight
        self.per_client = per_client
        self._lock = threading.Lock()
        self._inflight = 0
        self._by_client: dict[str, int] = {}

    def acquire(self, client: str = "") -> None:
        with self._lock:
            if self._inflight >= self.max_inflight:
                raise AdmissionError(
                    f"serving plane at capacity "
                    f"({self.max_inflight} queries in flight)")
            held = self._by_client.get(client, 0)
            if held >= self.per_client:
                raise AdmissionError(
                    f"client {client!r} exhausted its quota "
                    f"({self.per_client} queries in flight)")
            self._inflight += 1
            self._by_client[client] = held + 1

    def release(self, client: str = "") -> None:
        with self._lock:
            self._inflight = max(self._inflight - 1, 0)
            held = self._by_client.get(client, 0)
            if held <= 1:
                self._by_client.pop(client, None)
            else:
                self._by_client[client] = held - 1

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight


# -- worker process ----------------------------------------------------------

class _Shutdown(Exception):
    """Raised inside the worker loop by the SIGTERM handler."""


def _worker_main(conn, repository, collection, shard_id: int) -> None:
    """The worker process body: serve requests until told to stop.

    Runs in the forked child.  Builds a private
    :class:`~repro.service.session.Database` over the inherited
    (copy-on-write) repository, then answers ``(request id, op, ...)``
    tuples on the pipe, echoing the id in front of each reply.  SIGTERM
    and a ``shutdown`` op both exit cleanly (code 0); the parent dying
    closes the pipe and ends the loop too, so a worker can never
    outlive its coordinator as an orphan.
    """
    stopping = False

    def _on_sigterm(signum, frame):  # noqa: ARG001
        raise _Shutdown

    signal.signal(signal.SIGTERM, _on_sigterm)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    database = Database(repository, collection or None)
    database.metrics.set_gauge("shard.id", shard_id)
    database.metrics.set_gauge("shard.pid", os.getpid())
    session = database.session()
    try:
        while not stopping:
            try:
                if not conn.poll(_POLL_S):
                    continue
                request_id, *request = conn.recv()
            except (EOFError, OSError):
                break  # coordinator went away
            try:
                reply = _serve_request(session, database, request)
            except _Shutdown:
                raise
            except BaseException as exc:  # noqa: BLE001 - ship to parent
                reply = ("err", type(exc).__name__, str(exc))
            if reply is None:  # shutdown op
                conn.send((request_id, "ok", None))
                stopping = True
            else:
                try:
                    conn.send((request_id, *reply))
                except (BrokenPipeError, OSError):
                    break
    except _Shutdown:
        pass
    finally:
        try:
            conn.close()
        except OSError:
            pass


def _serve_request(session, database, request):
    """Dispatch one ``(op, ...)`` tuple; ``None`` means shutdown."""
    op = request[0]
    if op == "execute":
        result = session.execute(request[1])
        return ("ok", result.ship())
    if op == "metrics":
        return ("ok", database.metrics.to_dict())
    if op == "invalidate":
        database.invalidate_caches()
        return ("ok", None)
    if op == "ping":
        return ("ok", os.getpid())
    if op == "shutdown":
        return None
    return ("err", "ShardError", f"unknown worker op {op!r}")


class ShardWorker:
    """Coordinator-side handle on one worker process.

    The pipe is a strict request/reply channel; ``request`` serializes
    concurrent callers on a per-worker lock so replies can never
    interleave.  Each message carries an increasing request id that
    the worker echoes: a reply to an earlier request — one that came
    after its caller timed out — is discarded, never taken as the
    answer to a later one.  A pipe that fails is closed for good, so
    :meth:`alive` turns false even before the process is reaped.
    """

    def __init__(self, shard_id: int, process, conn):
        self.shard_id = shard_id
        self.process = process
        self.conn = conn
        self.lock = threading.Lock()
        #: id of the last request sent (under ``lock``).
        self.last_request_id = 0
        #: last folded counter values (delta tracking for telemetry).
        self.counter_base: dict[str, int] = {}

    def alive(self) -> bool:
        """The process runs and its pipe has not failed."""
        return not self.conn.closed and self.process.is_alive()

    def request(self, message, timeout: float = REPLY_TIMEOUT_S):
        """One round trip; raises :class:`ShardError` on a dead shard
        or re-raises the worker-side failure by its original type."""
        with self.lock:
            if not self.alive():
                raise ShardError(
                    f"shard {self.shard_id} worker is not running")
            self.last_request_id += 1
            request_id = self.last_request_id
            deadline = time.monotonic() + timeout
            try:
                self.conn.send((request_id, *message))
                while True:
                    if not self.conn.poll(max(deadline - time.monotonic(),
                                              0.0)):
                        raise ShardError(
                            f"shard {self.shard_id} did not reply within "
                            f"{timeout:g}s")
                    reply = self.conn.recv()
                    if not (isinstance(reply, tuple) and reply
                            and isinstance(reply[0], int)
                            and reply[0] < request_id):
                        break  # else: a timed-out request's late reply
            except (EOFError, OSError, BrokenPipeError) as exc:
                self.conn.close()
                raise ShardError(
                    f"shard {self.shard_id} pipe failed: "
                    f"{exc}") from exc
        if not isinstance(reply, tuple) or len(reply) < 3 \
                or reply[0] != request_id:
            raise ShardError(
                f"shard {self.shard_id} sent a malformed reply")
        if reply[1] == "ok":
            return reply[2]
        if reply[1] == "err":
            _, _, type_name, message_text = reply
            raise _rehydrate_error(type_name, message_text,
                                   self.shard_id)
        raise ShardError(
            f"shard {self.shard_id} sent unknown reply {reply[1]!r}")


def _rehydrate_error(type_name: str, message: str,
                     shard_id: int) -> XQueCError:
    """Map a worker-side failure back to its library exception type.

    A worker ships errors as ``(type name, message)``; known
    :class:`XQueCError` subclasses re-raise as themselves (a syntax
    error on shard 2 is still a syntax error at the front door),
    anything else — including worker-side crashes — becomes
    :class:`ShardError`.
    """
    error_type = getattr(errors_module, type_name, None)
    if (isinstance(error_type, type)
            and issubclass(error_type, XQueCError)
            and error_type not in (AdmissionError, ShardError)):
        try:
            return error_type(message)
        except Exception:  # noqa: BLE001
            pass  # constructor wants more than a message
    return ShardError(
        f"shard {shard_id} failed: {type_name}: {message}")


# -- query routing -----------------------------------------------------------

def query_route_keys(ast: Expression) -> list[str]:
    """The subtree keys a query's absolute path roots touch.

    Walks the AST for absolute :class:`PathExpr` nodes and keys each
    by its first two child-axis element steps (``/site/people/...`` →
    ``/site/people``); a root that goes wild before two steps
    (``//item``, ``/site/*``) keys by what resolved.  Document order —
    the first key is the query's driving root (its outer ``for``
    clause), which the router prefers as the primary shard.
    """
    keys: list[str] = []

    def visit(node) -> None:
        if isinstance(node, PathExpr) and node.start is None:
            names = []
            for step in node.steps:
                if (step.axis != "child" or step.test == "*"
                        or step.test == "text()"):
                    break
                names.append(step.test)
                if len(names) == 2:
                    break
            if names:
                key = "/" + "/".join(names)
                if key not in keys:
                    keys.append(key)
        walk(node)

    def walk(node) -> None:
        if dataclasses.is_dataclass(node):
            for field in dataclasses.fields(node):
                walk_value(getattr(node, field.name))
        elif isinstance(node, (tuple, list)):
            for child in node:
                walk_value(child)

    def walk_value(value) -> None:
        if isinstance(value, PathExpr):
            visit(value)
        elif dataclasses.is_dataclass(value) \
                or isinstance(value, (tuple, list)):
            walk(value)

    visit(ast) if isinstance(ast, PathExpr) else walk(ast)
    return keys


def _hash_shard(text: str, shard_count: int) -> int:
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") % shard_count


@dataclasses.dataclass(frozen=True)
class Route:
    """A routing decision: primary worker + cross-shard flag."""

    primary: int
    cross_shard: bool
    keys: tuple[str, ...]


def resolve_route(assignment: ShardAssignment, keys: Sequence[str],
                  fallback_key: str) -> Route:
    """Map route keys to (primary shard, cross-shard?).

    A two-step key maps to its owning shard; a shorter key (the query
    rooted at ``/site``) is a *prefix* and touches every shard owning
    a subtree under it.  The primary is the first key's shard when
    unique (the driving ``for`` clause keeps hitting one warm worker),
    else the lowest touched shard; no keys at all hash the query text.
    """
    known = assignment._shard_of
    per_key: list[set[int]] = []
    for key in keys:
        shard = known.get(key)
        if shard is not None:
            per_key.append({shard})
            continue
        prefix = key.rstrip("/") + "/"
        matched = {s for subtree, s in known.items()
                   if subtree.startswith(prefix)}
        per_key.append(matched if matched
                       else {assignment.shard_of_subtree(key)})
    touched = set().union(*per_key) if per_key else set()
    if not touched:
        return Route(_hash_shard(fallback_key,
                                 assignment.shard_count),
                     False, tuple(keys))
    if len(per_key[0]) == 1:
        primary = next(iter(per_key[0]))
    else:
        primary = min(touched)
    return Route(primary, len(touched) > 1, tuple(keys))


# -- the coordinator ---------------------------------------------------------

class ShardedDatabase:
    """The multi-process serving front door: route, scatter, gather.

    Construction computes the shard placement; :meth:`start` forks the
    workers (fork start method — the repository is shared
    copy-on-write, never pickled).  Use as a context manager for
    orderly shutdown::

        with ShardedDatabase(repository, shard_count=4) as db:
            received = db.execute(query, client="alice")

    :meth:`execute` returns the gathered
    :class:`~repro.query.shipping.ReceivedResultSet` — values decoded
    coordinator-side from the compressed frame, worker evaluation
    counters attached, ``to_xml()`` byte-identical to single-process
    :meth:`Session.execute <repro.service.session.Session.execute>`.

    Duck-types the telemetry surface (``metrics`` / ``uptime_ns`` /
    ``ready``), so :meth:`serve_telemetry` exposes the coordinator —
    its own ``session.executions`` and ``coordinator.*`` counters, with
    every worker's counters and gauges folded in under ``shard.<i>.``
    names — on the same ``/metrics`` endpoint as a single-process
    :class:`~repro.service.session.Database`.  It keeps no slow log:
    its ``/slowlog`` answers ``enabled: false``.
    """

    #: the worker pool: ``_live`` holds the workers not known dead,
    #: ``_idle`` (by shard id) those of them free to take a query.
    #: ``_pool`` is never held across a pipe round trip or while
    #: taking a :attr:`ShardWorker.lock`.
    GUARDED_BY = {"_idle": "_pool", "_live": "_pool",
                  "_routes": "_routes_lock"}

    def __init__(self, repository, collection=None, *,
                 shard_count: int = 2,
                 assignment: ShardAssignment | None = None,
                 queries: Sequence[str] = (),
                 metrics: MetricsRegistry | None = None,
                 admission: AdmissionController | None = None):
        self.repository = repository
        self.collection = dict(collection) if collection else {}
        if assignment is None:
            assignment = assign_shards(repository, shard_count,
                                       queries=queries)
        self.assignment = assignment
        self.shard_count = assignment.shard_count
        self.metrics = metrics if metrics is not None \
            else MetricsRegistry()
        self.admission = admission if admission is not None \
            else AdmissionController()
        self._workers: list[ShardWorker] = []
        self._pool = threading.Condition()
        self._idle: dict[int, ShardWorker] = {}
        self._live: set[ShardWorker] = set()
        self._routes: OrderedDict[str, Route] = OrderedDict()
        self._routes_lock = threading.Lock()
        self._started_ns = now_ns()
        self._telemetry_server = None
        self.metrics.set_gauge("coordinator.shards", self.shard_count)
        self.metrics.set_gauge("coordinator.admission.max_inflight",
                               self.admission.max_inflight)
        self.metrics.set_gauge("coordinator.admission.per_client",
                               self.admission.per_client)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ShardedDatabase":
        """Fork one worker per shard; idempotent."""
        if self._workers:
            return self
        context = multiprocessing.get_context("fork")
        for shard_id in range(self.shard_count):
            parent_conn, child_conn = context.Pipe(duplex=True)
            process = context.Process(
                target=_worker_main,
                args=(child_conn, self.repository,
                      self.collection or None, shard_id),
                name=f"xquec-shard-{shard_id}", daemon=True)
            process.start()
            child_conn.close()  # the child's end lives in the child
            self._workers.append(ShardWorker(shard_id, process,
                                             parent_conn))
        for worker in self._workers:
            worker.request(("ping",))
        with self._pool:
            self._idle = {worker.shard_id: worker
                          for worker in self._workers}
            self._live = set(self._workers)
        return self

    def close(self, timeout: float = 10.0) -> None:
        """Stop every worker: polite shutdown op, then SIGTERM, then
        (last resort) SIGKILL — no orphans survive.  Callers waiting
        for a worker wake up and raise :class:`ShardError`."""
        workers, self._workers = self._workers, []
        with self._pool:
            self._idle.clear()
            self._live.clear()
            self._pool.notify_all()
        for worker in workers:
            try:
                worker.request(("shutdown",), timeout=timeout)
            except (ShardError, XQueCError):
                pass
        for worker in workers:
            worker.process.join(timeout)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout)
            try:
                worker.conn.close()
            except OSError:
                pass
        if self._telemetry_server is not None:
            self._telemetry_server.close()
            self._telemetry_server = None

    def __enter__(self) -> "ShardedDatabase":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- serving -------------------------------------------------------------

    def route(self, query: str) -> Route:
        """The routing decision for a query (cached on its text, the
        ``DEFAULT_PLAN_CAPACITY`` most recent texts kept)."""
        key = normalize_query_text(query)
        with self._routes_lock:
            route = self._routes.get(key)
            if route is not None:
                self._routes.move_to_end(key)
                return route
        route = resolve_route(self.assignment,
                              query_route_keys(parse_query(query)), key)
        with self._routes_lock:
            self._routes[key] = route
            while len(self._routes) > DEFAULT_PLAN_CAPACITY:
                self._routes.popitem(last=False)
        return route

    def execute(self, query: str,
                client: str = "") -> ReceivedResultSet:
        """Admit, route, run on a pooled worker, gather.

        Raises :class:`~repro.errors.AdmissionError` when refused and
        :class:`ShardError` when no worker is running; worker-side
        query failures re-raise by their original type.
        """
        self.admission.acquire(client)
        try:
            route = self.route(query)
            self.metrics.add("session.executions")
            self.metrics.add("coordinator.queries")
            if route.cross_shard:
                self.metrics.add("coordinator.cross_shard_queries")
            self.metrics.add(f"shard.{route.primary}.routed")
            worker = self._acquire(route.primary)
            try:
                frame = worker.request(("execute", query))
            finally:
                self._release(worker)
            received = receive_result(frame)
            self.metrics.add("shipping.wire_bytes", len(frame))
            self.metrics.add("shipping.plain_bytes",
                             received.plain_bytes)
            self.metrics.add("shipping.compressed_value_bytes",
                             received.compressed_value_bytes)
            return received
        finally:
            self.admission.release(client)

    def _acquire(self, preferred: int) -> ShardWorker:
        """Take the preferred worker if idle, else any idle one, else
        wait for the first to come free.  A dead worker leaves the
        pool; with none alive (or before :meth:`start`, after
        :meth:`close`) raises :class:`ShardError`."""
        with self._pool:
            while True:
                if not self._live:
                    raise ShardError("no shard worker is running")
                worker = self._idle.pop(preferred, None)
                if worker is None and self._idle:
                    worker = self._idle.pop(next(iter(self._idle)))
                if worker is None:
                    self._pool.wait()
                elif worker.alive():
                    return worker
                else:
                    self._forget(worker)

    def _release(self, worker: ShardWorker) -> None:
        """Hand a worker back to the pool unless it died or the pool
        was closed under it."""
        with self._pool:
            if worker not in self._live:
                return
            if worker.alive():
                self._idle[worker.shard_id] = worker
                self._pool.notify()
            else:
                self._forget(worker)

    def _forget(self, worker: ShardWorker) -> None:  # holds: _pool
        self._live.discard(worker)
        # Waiters must learn when the last worker is gone.
        self._pool.notify_all()

    def execute_many(self, queries: Sequence[str],
                     client: str = "",
                     max_workers: int | None = None
                     ) -> list[ReceivedResultSet]:
        """Scatter a batch across the shard pool; gather in order.

        Admission applies per query — each one is admitted as a slot
        frees up (the batch as a whole is the caller's concurrency,
        bounded by ``max_workers``, default one thread per shard).
        """
        if max_workers is None:
            max_workers = max(self.shard_count, 1)
        if max_workers <= 1 or len(queries) <= 1:
            return [self.execute(query, client) for query in queries]
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            return list(pool.map(
                lambda query: self.execute(query, client), queries))

    def invalidate_caches(self) -> None:
        """Flush every worker's caches (and array memos) plus the
        coordinator's route cache."""
        with self._routes_lock:
            self._routes.clear()
        for worker in self._workers:
            worker.request(("invalidate",))

    # -- telemetry -----------------------------------------------------------

    def gather_metrics(self) -> None:
        """Fold every worker's registry into the coordinator's.

        Worker counters surface as ``shard.<i>.<name>`` (delta-folded
        so they stay monotonic counters), gauges as
        ``shard.<i>.<name>`` gauges — the per-shard labels the
        ``/metrics`` exporter renders.
        """
        for worker in self._workers:
            snapshot = worker.request(("metrics",))
            shard = worker.shard_id
            for name, value in snapshot["counters"].items():
                base = worker.counter_base.get(name, 0)
                if value > base:
                    self.metrics.add(f"shard.{shard}.{name}",
                                     value - base)
                worker.counter_base[name] = value
            for name, value in snapshot["gauges"].items():
                self.metrics.set_gauge(f"shard.{shard}.{name}",
                                       value)

    def uptime_ns(self) -> int:
        """Nanoseconds since the coordinator was constructed."""
        return elapsed_ns(self._started_ns)

    def ready(self) -> bool:
        """Readiness: every worker is alive and answers a ping."""
        if not self._workers:
            return False
        try:
            for worker in self._workers:
                worker.request(("ping",), timeout=5.0)
            return True
        except XQueCError:
            return False

    def serve_telemetry(self, port: int = 0, host: str = "127.0.0.1"):
        """Expose the coordinator on the standard telemetry endpoint.

        Worker counters are folded in (:meth:`gather_metrics`) at
        start; callers wanting fresher per-shard numbers re-gather
        before scraping.
        """
        from repro.service.telemetry_http import TelemetryServer
        if self._telemetry_server is not None \
                and not self._telemetry_server.closed:
            raise RuntimeError(
                "telemetry endpoint already serving on port "
                f"{self._telemetry_server.port}; stop it first")
        self.gather_metrics()
        server = TelemetryServer(self, host=host, port=port)
        server.start()
        self._telemetry_server = server
        return server
