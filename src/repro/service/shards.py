"""Sharded multi-process serving plane: scatter/gather over workers.

One :class:`ShardedDatabase` front door forks ``N`` worker processes,
each holding the repository (copy-on-write — fork shares the resident
compressed pages) behind its *own* :class:`~repro.service.session
.Database` — private plan cache, block cache and metrics registry, so
a worker warms exactly the slice of the document it is routed.

Routing follows the structure-summary subtree placement chosen by
:func:`repro.partitioning.assign_shards`: the coordinator extracts the
absolute path roots of each query, maps their subtrees to owning
shards, and sends the query to the shard owning its driving subtree.
A query whose roots span several shards still runs on one worker
(every worker answers every query — XQuery joins reach across
subtrees) but is counted as *cross-shard*: the telemetry that tells an
operator when the placement no longer matches the workload.

Results cross the process boundary through the §1 shipping frame
(:func:`repro.query.shipping.ship_result`): values travel compressed,
and the coordinator accounts bytes-on-the-wire against what plain
decompressed shipping would have cost.

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
from concurrent.futures import ThreadPoolExecutor
from collections.abc import Sequence

import repro.errors as errors_module
from repro.errors import AdmissionError, ShardError, XQueCError
from repro.obs.metrics import MetricsRegistry
from repro.partitioning.sharding import ShardAssignment, assign_shards
from repro.query.ast import Expression, PathExpr
from repro.query.parser import parse_query
from repro.query.shipping import ReceivedResultSet, receive_result
from repro.service.cache import normalize_query_text
from repro.service.session import Database
from repro.service.slo import classify_query, observe_latency
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
    (copy-on-write) repository, then answers ``(op, ...)`` tuples on
    the pipe.  SIGTERM and a ``shutdown`` op both exit cleanly (code
    0); the parent dying closes the pipe and ends the loop too, so a
    worker can never outlive its coordinator as an orphan.
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
                request = conn.recv()
            except (EOFError, OSError):
                break  # coordinator went away
            try:
                reply = _serve_request(session, database, request)
            except _Shutdown:
                raise
            except BaseException as exc:  # noqa: BLE001 - ship to parent
                reply = ("err", type(exc).__name__, str(exc))
            if reply is None:  # shutdown op
                conn.send(("ok", None))
                stopping = True
            else:
                try:
                    conn.send(reply)
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
        from repro.query.shipping import ship_result
        result = session.execute(request[1])
        return ("ok", ship_result(result))
    if op == "metrics":
        return ("ok", {"counters": database.metrics.counters(),
                       "gauges": database.metrics.gauges()})
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
    interleave.
    """

    def __init__(self, shard_id: int, process, conn):
        self.shard_id = shard_id
        self.process = process
        self.conn = conn
        self.lock = threading.Lock()
        #: last folded counter values (delta tracking for telemetry).
        self.counter_base: dict[str, int] = {}

    def request(self, message, timeout: float = REPLY_TIMEOUT_S):
        """One round trip; raises :class:`ShardError` on a dead shard
        or re-raises the worker-side failure by its original type."""
        with self.lock:
            if not self.process.is_alive():
                raise ShardError(
                    f"shard {self.shard_id} worker is not running")
            try:
                self.conn.send(message)
                if not self.conn.poll(timeout):
                    raise ShardError(
                        f"shard {self.shard_id} did not reply within "
                        f"{timeout:.0f}s")
                reply = self.conn.recv()
            except (EOFError, OSError, BrokenPipeError) as exc:
                raise ShardError(
                    f"shard {self.shard_id} pipe failed: "
                    f"{exc}") from exc
        if not isinstance(reply, tuple) or not reply:
            raise ShardError(
                f"shard {self.shard_id} sent a malformed reply")
        if reply[0] == "ok":
            return reply[1]
        if reply[0] == "err":
            _, type_name, message_text = reply
            raise _rehydrate_error(type_name, message_text,
                                   self.shard_id)
        raise ShardError(
            f"shard {self.shard_id} sent unknown reply {reply[0]!r}")


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
    """A routing decision: primary worker + cross-shard flag, with
    the SLO class the query's end-to-end latency is filed under."""

    primary: int
    cross_shard: bool
    keys: tuple[str, ...]
    query_class: str = "other"


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
    ``ready`` / ``slow_log``), so :meth:`serve_telemetry` exposes the
    coordinator — its own ``session.executions`` and per-class
    ``slo.latency_ns.*`` end-to-end latencies, with every worker's
    counters folded in under ``shard.<i>.`` names — on the standard
    ``/metrics`` endpoint, readable by ``repro top`` like a
    single-process :class:`~repro.service.session.Database`.
    """

    def __init__(self, repository, collection=None, *,
                 shard_count: int = 2,
                 assignment: ShardAssignment | None = None,
                 queries: Sequence[str] = (),
                 metrics: MetricsRegistry | None = None,
                 slow_log=None,
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
        self.slow_log = slow_log
        self.admission = admission if admission is not None \
            else AdmissionController()
        self._workers: list[ShardWorker] = []
        self._routes: dict[str, Route] = {}
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
        return self

    def close(self, timeout: float = 10.0) -> None:
        """Stop every worker: polite shutdown op, then SIGTERM, then
        (last resort) SIGKILL — no orphans survive."""
        workers, self._workers = self._workers, []
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
        """The routing decision for a query (cached on its text)."""
        key = normalize_query_text(query)
        with self._routes_lock:
            route = self._routes.get(key)
        if route is not None:
            return route
        ast = parse_query(query)
        route = dataclasses.replace(
            resolve_route(self.assignment, query_route_keys(ast), key),
            query_class=classify_query(ast))
        with self._routes_lock:
            self._routes[key] = route
        return route

    def execute(self, query: str,
                client: str = "") -> ReceivedResultSet:
        """Admit, route, scatter to the owning worker, gather.

        Raises :class:`~repro.errors.AdmissionError` when refused;
        worker-side query failures re-raise by their original type.
        """
        self.admission.acquire(client)
        try:
            route = self.route(query)
            self.metrics.add("session.executions")
            self.metrics.add("coordinator.queries")
            if route.cross_shard:
                self.metrics.add("coordinator.cross_shard_queries")
            self.metrics.add(f"shard.{route.primary}.routed")
            worker = self._workers[route.primary]
            start_ns = now_ns()
            try:
                frame = worker.request(("execute", query))
                received = receive_result(frame)
            finally:
                # End-to-end, failed runs included (as Session._run).
                observe_latency(self.metrics, route.query_class,
                                elapsed_ns(start_ns))
            self.metrics.add("shipping.wire_bytes", len(frame))
            self.metrics.add("shipping.plain_bytes",
                             received.plain_bytes)
            self.metrics.add("shipping.compressed_value_bytes",
                             received.compressed_value_bytes)
            return received
        except AdmissionError:
            raise
        finally:
            self.admission.release(client)

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
