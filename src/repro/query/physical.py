"""The physical operators of the XQueC query engine (paper §4).

The operators the optimizer's plans contain, in the paper's three
groups:

* **data access** — :class:`ContScan`, :class:`ContAccess`,
  :class:`ContSubstring`, :class:`StructureSummaryAccess`,
  :class:`Parent`;
* **data combination** — :class:`NodeSet`, :class:`FirstHit`,
  :class:`Concat`, :class:`MergeJoin`, :class:`ColumnCompare`,
  :class:`Sort`, and :class:`ThetaJoin` — a sorted key run the
  evaluator probes per outer binding, not a stream;
* **decompression** — :class:`Decompress`.  Figure 5's final
  XMLSerialize step is the materialization of the
  :class:`~repro.query.engine.QueryResult`, not an operator.

Operators move data through one **batch-pull protocol** (DESIGN.md
§13): an operator implements ``_batches(size)``, ``batches(size)``
yields its :class:`~repro.query.batch.RecordBatch` columnar slices, and
the scan/selection/join operators evaluate over numpy arrays — container
slot ranges for compressed-domain predicates, ``np.searchsorted`` for
merge keys.  Iterating an operator yields *rows* (dicts mapping column
names to items): the same batches, flattened, so plans compose by
nesting either way.  Operators whose work is per-row (sorts,
blob-container fallbacks) run one private row generator over their
input's batches and chunk it.

Order guarantees mirror §4: ``StructureSummaryAccess``, ``NodeSet`` and
``FirstHit`` emit element ids in document order, ``Parent`` preserves
the order of its input, and ``ContScan``/``ContAccess`` emit in
*value* order — which is what lets plans use :class:`MergeJoin` without
sorting.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from time import perf_counter_ns

import numpy as np

from repro.errors import QueryTypeError
from repro.query.batch import (DEFAULT_BATCH_SIZE, ItemColumn,
                               NodeColumn, RecordBatch, ValueColumn,
                               batches_from_rows, rows_of_batches)
from repro.query.context import CompressedItem, NodeItem
from repro.storage.repository import CompressedRepository

Row = dict

#: the traced run's Telemetry while ``QueryEngine.execute`` evaluates
#: it.  Context-local: a thread starts with an empty context, so a
#: concurrent untraced run reads ``None`` and never reports here.
TELEMETRY: ContextVar = ContextVar("telemetry", default=None)

#: the running query's EvaluationStats, which the operators count
#: into; context-local like ``TELEMETRY`` (``None``: nobody counts).
STATS: ContextVar = ContextVar("stats", default=None)


@contextmanager
def counting(stats, telemetry=None):
    """One query run: operators pulled inside count into ``stats`` and,
    traced, report to ``telemetry``, never into themselves (shared)."""
    stats_token = STATS.set(stats)
    telemetry_token = TELEMETRY.set(telemetry)
    try:
        yield stats
    finally:
        TELEMETRY.reset(telemetry_token)
        STATS.reset(stats_token)


def _traced(name: str, batches: Iterator[RecordBatch]
            ) -> Iterator[RecordBatch]:
    """Wrap an operator's batch stream with the run's telemetry.

    Records the full iteration as one finished span named ``name``,
    with its ``rows`` (from batch lengths) and ``batches`` attributes,
    under the span open when the stream ends; on an untraced run the
    stream is returned untouched.
    """
    telemetry = TELEMETRY.get()
    if telemetry is None:
        return batches

    def traced() -> Iterator[RecordBatch]:
        rows = count = 0
        start = perf_counter_ns()
        try:
            for batch in batches:
                rows += len(batch)
                count += 1
                yield batch
        finally:
            telemetry.tracer.record(name, start, perf_counter_ns(),
                                    rows=rows, batches=count)
    return traced()


def _count(counter: str, amount: int = 1) -> None:
    """Add ``amount`` to the running query's ``counter``, if any."""
    stats = STATS.get()
    if stats is not None:
        setattr(stats, counter, getattr(stats, counter) + amount)


def _input_batches(source, size: int) -> Iterator[RecordBatch]:
    """Batches from an operator input (operator or plain row iterable)."""
    if isinstance(source, Operator):
        return source.batches(size)
    return batches_from_rows(iter(source), size)


def input_rows(source, size: int) -> Iterator[Row]:
    """Rows from an operator input, pulled ``size`` at a time."""
    if isinstance(source, Operator):
        return rows_of_batches(source.batches(size))
    return iter(source)


def node_ids(batch: RecordBatch, name: str) -> np.ndarray:
    """The ``int64`` element ids of one batch column."""
    column = batch.column(name)
    if isinstance(column, NodeColumn):
        return column.ids
    return np.fromiter((item.node_id for item in column.to_items()),
                       dtype=np.int64, count=len(batch))


class Operator:
    """Base class: a batch-pull operator that is also iterable as rows.

    Subclasses implement ``_batches(size)``; ``batches(size)``
    routes it through :func:`_traced`, and ``__iter__``/``rows()`` are
    those batches flattened.

    ``INPUTS`` names the attributes holding the operator's stream
    inputs, in plan order — the static plan verifier
    (:mod:`repro.lint.plan`) walks plans through it without executing
    them.
    """

    #: attribute names of this operator's stream inputs, in order.
    INPUTS: tuple[str, ...] = ()

    def __iter__(self) -> Iterator[Row]:
        return rows_of_batches(self.batches())

    def batches(self, batch_size: int | None = None
                ) -> Iterator[RecordBatch]:
        """The operator's output as traced RecordBatch slices."""
        size = DEFAULT_BATCH_SIZE if batch_size is None \
            else int(batch_size)
        if size < 1:
            raise ValueError(f"batch_size must be >= 1, got {size}")
        return _traced(type(self).__name__, self._batches(size))

    def _batches(self, size: int) -> Iterator[RecordBatch]:
        raise NotImplementedError(
            f"{type(self).__name__} does not implement _batches")

    def inputs(self) -> list:
        """The operator's input streams (operators or plain iterables)."""
        return [getattr(self, name) for name in self.INPUTS]

    def rows(self) -> list[Row]:
        """Materialize the full output (convenience for tests/benches)."""
        return list(self)


# -- data access operators ----------------------------------------------------

class ContScan(Operator):
    """Scan all (elementID, compressed value) pairs of a container.

    Never materializes per-record objects: ids come straight from
    the container's cached parent-id array and values ride as slot
    ranges (:class:`~repro.query.batch.ValueColumn`).
    """

    def __init__(self, repository: CompressedRepository, path: str,
                 id_column: str, value_column: str):
        self.container = repository.container(path)
        self.id_column = id_column
        self.value_column = value_column

    def _batches(self, size: int) -> Iterator[RecordBatch]:
        _count("container_scans")
        container = self.container
        if container.is_blob:  # no record slots: decompressing scan
            yield from _blob_batches(self, container.scan(), size)
            return
        arrays = container.as_arrays()
        for start in range(0, arrays.count, size):
            stop = min(start + size, arrays.count)
            yield RecordBatch({
                self.id_column:
                    NodeColumn(arrays.parent_ids[start:stop]),
                self.value_column:
                    ValueColumn(container, np.arange(start, stop))})


def _blob_batches(access, pairs, size: int) -> Iterator[RecordBatch]:
    """A blob container access's ``(parent id, compressed)`` pairs as
    rows of its id and value columns, in batches."""
    codec, value_type = access.container.codec, access.container.value_type
    return batches_from_rows(({
        access.id_column: NodeItem(parent_id),
        access.value_column: CompressedItem(compressed, codec, value_type)}
        for parent_id, compressed in pairs), size)


class ContAccess(Operator):
    """Interval access into a container (binary search, §2.2).

    Resolves the interval to one slot range (``interval_positions``)
    and emits array slices of it.
    """

    def __init__(self, repository: CompressedRepository, path: str,
                 id_column: str, value_column: str,
                 low: str | None = None, high: str | None = None,
                 low_inclusive: bool = True, high_inclusive: bool = True):
        self.container = repository.container(path)
        self.id_column = id_column
        self.value_column = value_column
        self.interval = (low, high, low_inclusive, high_inclusive)

    def _batches(self, size: int) -> Iterator[RecordBatch]:
        _count("container_accesses")
        container = self.container
        if container.is_blob:  # no record slots: filtered full scan
            yield from _blob_batches(
                self, container.interval_search(*self.interval), size)
            return
        arrays = container.as_arrays()
        start, end = container.interval_positions(*self.interval)
        for lo in range(start, end, size):
            hi = min(lo + size, end)
            yield RecordBatch({
                self.id_column: NodeColumn(arrays.parent_ids[lo:hi]),
                self.value_column:
                    ValueColumn(container, np.arange(lo, hi))})


class ContSubstring(Operator):
    """Substring access into a container: the records whose value
    contains ``needle``, in slot order, in ``ContAccess``'s shape.

    ``exact`` (``contains`` with a needle of at least q characters):
    exactly those records (``substring_slots``, positional q-grams),
    so nobody re-checks them.  Otherwise a superset
    (``substring_candidates``: q-gram matches, any letter case) that
    whoever means ``contains`` or ``word-contains`` (``function``)
    re-checks per binding.
    """

    def __init__(self, repository: CompressedRepository, path: str,
                 id_column: str, value_column: str, needle: str,
                 function: str = "contains", exact: bool = False):
        self.container = repository.container(path)
        self.id_column = id_column
        self.value_column = value_column
        self.needle = needle
        self.function = function
        self.exact = exact

    def _batches(self, size: int) -> Iterator[RecordBatch]:
        _count("container_accesses")
        container = self.container
        slots = container.substring_slots(self.needle) if self.exact \
            else container.substring_candidates(self.needle)
        if slots is None:
            raise QueryTypeError(
                f"container {container.path!r} has no substring "
                f"{'slots' if self.exact else 'candidates'} for "
                f"{self.needle!r}")
        parents = container.as_arrays().parent_ids
        for start in range(0, len(slots), size):
            part = slots[start:start + size]
            yield RecordBatch({
                self.id_column: NodeColumn(parents[part]),
                self.value_column: ValueColumn(container, part)})


class FirstHit(Operator):
    """The owners whose *first* value under ``leaves``, in document
    order, is one of the input's — what ``contains`` reads of a
    sequence: its first item.

    ``leaves`` are ``(container path, hops)`` pairs: each slot of the
    container belongs to the element ``hops`` ``Parent`` steps above
    its parent.  The input carries the owners (``column``) of some of
    those values (``value_column``, as slots) — exact ``ContSubstring
    → Parent^hops`` chains.  An owner holding one value is decided by
    counting the owner columns; one holding several by structure
    order: the first of its texts (``subtree_texts``), else — an
    attribute leaf, one value per element — the one of the lowest
    parent.  No value is decoded.  Owners leave in document order.
    """

    INPUTS = ("_source",)

    def __init__(self, source: Iterable[Row],
                 repository: CompressedRepository,
                 leaves: list[tuple[str, int]], column: str,
                 value_column: str):
        self._source = source
        self._repository = repository
        self.leaves = tuple(leaves)
        self.column = column
        self.value_column = value_column

    def _batches(self, size: int) -> Iterator[RecordBatch]:
        owners, hit_slots = [], {}
        for batch in _input_batches(self._source, size):
            owners.append(node_ids(batch, self.column))
            values = batch.column(self.value_column)
            hit_slots.setdefault(values.container.path, []).append(
                values.indices)
        if not owners:
            return
        repository = self._repository
        parents = repository.structure.parents
        owned: dict[str, list[np.ndarray]] = {}
        for path, hops in self.leaves:
            owned.setdefault(path, []).append(
                repository.container(path).as_arrays().owners(hops,
                                                              parents))
        every, counts = np.unique(np.concatenate(
            [o for arrays in owned.values() for o in arrays]),
            return_counts=True)
        found = np.unique(np.concatenate(owners))
        several = counts[np.searchsorted(every, found)] > 1
        hits = {path: set(np.concatenate(parts).tolist())
                for path, parts in hit_slots.items()}
        firsts = [owner for owner in found[several].tolist()
                  if self._first_is_hit(owner, owned, hits)]
        ids = np.union1d(found[~several], firsts).astype(np.int64)
        for start in range(0, len(ids), size):
            yield RecordBatch({
                self.column: NodeColumn(ids[start:start + size])})

    def _first_is_hit(self, owner: int, owned: dict, hits: dict) -> bool:
        """Is the first of ``owner``'s values one of ``hits``?"""
        structure = self._repository.structure
        if next(iter(owned)).endswith("/#text"):
            _count("nodes_visited", structure.subtree_end(owner) - owner)
            for container, slot in structure.subtree_texts(owner):
                path = structure.paths[container]
                if any(o[slot] == owner for o in owned.get(path, ())):
                    return slot in hits.get(path, ())
            return False
        # An attribute leaf: each element holds one, so the first is
        # the lowest parent's.
        values = []
        for path, arrays in owned.items():
            parent_ids = self._repository.container(path).as_arrays() \
                .parent_ids
            mine = np.logical_or.reduce([o == owner for o in arrays])
            values += [(parent_ids[slot], path, slot)
                       for slot in np.flatnonzero(mine).tolist()]
        _, path, slot = min(values)
        return slot in hits.get(path, ())


class StructureSummaryAccess(Operator):
    """All element ids reachable by a path, in document order; the
    summary ``steps`` resolve when the operator is built, once per plan.
    """

    def __init__(self, repository: CompressedRepository,
                 steps: list[tuple[str, str]], column: str):
        self.steps = steps
        self.column = column
        extents = [node.extent for node in repository.resolve_path(steps)]
        # One summary node's extent is in document order, each node once.
        self.ids = np.array(extents[0], dtype=np.int64) \
            if len(extents) == 1 else \
            np.unique(np.concatenate(extents)).astype(np.int64) \
            if extents else np.empty(0, dtype=np.int64)

    def _batches(self, size: int) -> Iterator[RecordBatch]:
        _count("summary_accesses")
        ids = self.ids
        for start in range(0, len(ids), size):
            yield RecordBatch({
                self.column: NodeColumn(ids[start:start + size])})


class Parent(Operator):
    """Append each input node's parent; preserves input order (§4).

    Gathers parents from the structure tree's parent column in one
    indexing operation per batch.
    """

    INPUTS = ("_source",)

    def __init__(self, source: Iterable[Row],
                 repository: CompressedRepository,
                 input_column: str, output_column: str):
        self._source = source
        self._repository = repository
        self.input_column = input_column
        self.output_column = output_column

    def _batches(self, size: int) -> Iterator[RecordBatch]:
        parents = self._repository.structure.parents
        for batch in _input_batches(self._source, size):
            ids = node_ids(batch, self.input_column)
            out_parents = parents[ids]
            keep = out_parents >= 0
            if not keep.all():
                batch = batch.take(np.flatnonzero(keep))
                out_parents = out_parents[keep]
            if not len(batch):
                continue
            _count("nodes_visited", len(batch))
            yield batch.with_column(self.output_column,
                                    NodeColumn(out_parents))


def _concat_ranges(lo: np.ndarray, hi: np.ndarray,
                   total: int) -> np.ndarray:
    """Concatenate the integer ranges ``[lo[i], hi[i])`` vectorized."""
    counts = hi - lo
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    return np.repeat(lo, counts) + (np.arange(total) - offsets)


#: ``NodeSet`` modes; each returns its result sorted and duplicate-free.
_SET_OPERATIONS = {"union": np.union1d, "intersect": np.intersect1d,
                   "difference": np.setdiff1d}


class NodeSet(Operator):
    """Node ids as a set in document order: ``left``'s ``column``
    sorted and duplicate-free, or — with a ``right`` input — their
    ``union`` / ``intersect`` / ``difference`` with its ``column``.

    What turns value-ordered ``ContAccess → Parent`` streams (an owner
    once per matching value) into the nodes a selection binds, and
    conjuncts into set algebra.  Every other column is dropped.
    """

    INPUTS = ("_left", "_right")

    def __init__(self, left: Iterable[Row],
                 right: Iterable[Row] | None, column: str,
                 mode: str = "union"):
        if mode not in _SET_OPERATIONS:
            raise ValueError(f"unknown NodeSet mode {mode!r}")
        self._left = left
        self._right = right
        self.column = column
        self.mode = mode

    def inputs(self) -> list:
        return [self._left] if self._right is None \
            else [self._left, self._right]

    def _ids(self, source, size: int) -> np.ndarray:
        parts = [node_ids(batch, self.column)
                 for batch in _input_batches(source, size) if len(batch)]
        return np.concatenate(parts) if parts \
            else np.empty(0, dtype=np.int64)

    def _batches(self, size: int) -> Iterator[RecordBatch]:
        ids = self._ids(self._left, size)
        ids = np.unique(ids) if self._right is None else \
            _SET_OPERATIONS[self.mode](ids, self._ids(self._right, size))
        for start in range(0, len(ids), size):
            yield RecordBatch({
                self.column: NodeColumn(ids[start:start + size])})


class Concat(Operator):
    """Bag union: ``left``'s rows, then ``right``'s — what a ``Sort``
    merges several containers' value-ordered runs from.  No order is
    established."""

    INPUTS = ("_left", "_right")

    def __init__(self, left: Iterable[Row], right: Iterable[Row]):
        self._left = left
        self._right = right

    def _batches(self, size: int) -> Iterator[RecordBatch]:
        yield from _input_batches(self._left, size)
        yield from _input_batches(self._right, size)


class _BatchCursor:
    """Streaming cursor over one merge-join input.

    Holds exactly one batch plus its key column's items at a time;
    equal-key *runs* are located with ``np.searchsorted`` and may span
    batch boundaries, in which case only the run is buffered.
    """

    def __init__(self, batches: Iterator[RecordBatch], column: str):
        self._batches = batches
        self._column = column
        self._batch: RecordBatch | None = None
        self._keys: np.ndarray | None = None
        self._pos = 0

    def _fetch(self) -> bool:
        for batch in self._batches:
            if not len(batch):
                continue
            keys = np.empty(len(batch), dtype=object)
            keys[:] = batch.column(self._column).to_items()
            self._batch = batch
            self._keys = keys
            self._pos = 0
            return True
        self._batch = None
        self._keys = None
        return False

    def ensure(self) -> bool:
        """True when a current row exists (fetching as needed)."""
        if self._keys is not None and self._pos < len(self._keys):
            return True
        return self._fetch()

    def current_key(self):
        assert self._keys is not None
        return self._keys[self._pos]

    def last_key(self):
        assert self._keys is not None
        return self._keys[-1]

    def skip_below(self, key) -> None:
        """Drop rows with keys ``< key`` from the current batch."""
        assert self._keys is not None
        self._pos += int(np.searchsorted(self._keys[self._pos:], key,
                                         side="left"))

    def take_below(self, key) -> tuple[RecordBatch, np.ndarray]:
        """Consume the current batch's rows with keys ``< key``: the
        rows and their keys."""
        assert self._batch is not None and self._keys is not None
        start = self._pos
        self.skip_below(key)
        return (self._batch.slice(start, self._pos),
                self._keys[start:self._pos])

    def take_run(self) -> RecordBatch:
        """Consume the current equal-key run (may span batches)."""
        assert self._keys is not None
        run_key = self._keys[self._pos]
        parts = []
        while True:
            end = self._pos + int(np.searchsorted(
                self._keys[self._pos:], run_key, side="right"))
            parts.append(self._batch.slice(self._pos, end))
            self._pos = end
            if self._pos < len(self._keys):
                break
            if not self._fetch():
                break
            if not (self._keys[0] == run_key):
                break
        return parts[0] if len(parts) == 1 else RecordBatch.concat(parts)


def _equal_key_rows(left: RecordBatch, left_keys: np.ndarray,
                    right: RecordBatch, right_keys: np.ndarray
                    ) -> RecordBatch:
    """Every pair of equal-key rows of two key-sorted batches, merged:
    by key, then left row, then right row — a run's cross product in
    the order the run-by-run merge emits it."""
    lo = np.searchsorted(right_keys, left_keys, side="left")
    hi = np.searchsorted(right_keys, left_keys, side="right")
    total = int((hi - lo).sum())
    return left.take(np.repeat(np.arange(len(left_keys)), hi - lo)) \
        .merged_with(right.take(_concat_ranges(lo, hi, total)))


class MergeJoin(Operator):
    """1-pass merge join over inputs already sorted on their keys.

    The order-preserving container scans make this the paper's operator
    of choice for value joins (§4): no sort is needed — but *only* when
    both inputs really arrive sorted on their keys.  The join compares
    the items of its key columns ``left_column``/``right_column``,
    whose order the plan verifier proves (or refutes) statically.

    Both sides stream: one batch per side is buffered, plus the
    current equal-key run.  The keys below both batches' last key have
    every row in the batches at hand and join in one vectorized step
    (``np.searchsorted`` of one key array in the other); the run at
    that key, which may continue in the next batches, merges row-run
    by row-run.
    """

    INPUTS = ("_left", "_right")

    def __init__(self, left: Iterable[Row], right: Iterable[Row],
                 left_column: str, right_column: str):
        self._left = left
        self._right = right
        self.left_column = left_column
        self.right_column = right_column

    def _batches(self, size: int) -> Iterator[RecordBatch]:
        left = _BatchCursor(_input_batches(self._left, size),
                            self.left_column)
        right = _BatchCursor(_input_batches(self._right, size),
                             self.right_column)
        while left.ensure() and right.ensure():
            # No row below the smaller last key is in a later batch.
            bound = min(left.last_key(), right.last_key())
            out = _equal_key_rows(*left.take_below(bound),
                                  *right.take_below(bound))
            for start in range(0, len(out), size):
                yield out.slice(start, start + size)
            # Both batches still hold their last key's rows.
            left_key = left.current_key()
            right_key = right.current_key()
            if left_key < right_key:
                left.skip_below(right_key)
            elif right_key < left_key:
                right.skip_below(left_key)
            else:
                left_run = left.take_run()
                right_run = right.take_run()
                n_left = len(left_run)
                n_right = len(right_run)
                out = left_run.take(
                    np.repeat(np.arange(n_left), n_right)).merged_with(
                    right_run.take(np.tile(np.arange(n_right), n_left)))
                for start in range(0, n_left * n_right, size):
                    yield out.slice(start, start + size)


class ThetaJoin:
    """Sort-based inequality join: ``scale * key <op> probe`` (§2.2/§4).

    Containers are value-sorted and the numeric codecs order
    preserving, so the scaled ``sort_keys`` of the key containers *are*
    the sorted run, paired with their owning elements (``ascend``
    ``Parent`` gathers up).  A probe is one ``np.searchsorted`` per
    outer value; its slot range's length is the match count, its
    ``owners`` slice the matches.  Not a stream: the evaluator probes
    it once per outer binding or row.  :meth:`build` refuses — before
    any counter — wherever position is not the comparison; callers then
    evaluate the condition per pair.  Once built, it is read-only.
    """

    def __init__(self, repository: CompressedRepository,
                 container_paths: list[str], op: str,
                 output_column: str, *, scale: float = 1.0,
                 ascend: int = 0):
        self._parents = repository.structure.parents
        self.scale = scale
        self.ascend = ascend
        self._keys: np.ndarray | None = None
        self.containers = [repository.container(path)
                           for path in container_paths]
        self.op = op
        self.output_column = output_column
        #: owning element per key slot, aligned with the sorted keys.
        self.owners: np.ndarray | None = None

    def inputs(self) -> list:
        """No input stream: the plan views (EXPLAIN, the verifier) see
        a leaf."""
        return []

    def numeric_ordered(self) -> bool:
        """Every key container keeps record slots in numeric order."""
        return bool(self.containers) and all(
            not c.is_blob and c.value_type in ("int", "float")
            for c in self.containers)

    def build(self) -> bool:
        """Assemble the sorted key run once; ``False`` means fall back."""
        if self._keys is not None:
            return True
        found = _owned_values(self.containers, self.ascend,
                              self._parents)
        if found is None:
            return False
        owners, keys = found
        # The product the reference computes, in float64 — never
        # probe / scale, which rounds differently.
        keys = self.scale * keys
        if len(self.containers) > 1:
            order = np.argsort(keys, kind="stable")
            keys, owners = keys[order], owners[order]
        self._keys, self.owners = keys, owners
        return True

    def probe(self, value: float) -> tuple[int, int]:
        """Slot range of the keys with ``key <op> value``."""
        _count("container_accesses")
        side = "left" if self.op in ("<", ">=") else "right"
        cut = int(np.searchsorted(self._keys, value, side=side))
        return (0, cut) if self.op in ("<", "<=") \
            else (cut, len(self._keys))


#: ``ColumnCompare`` comparisons, elementwise over float64 columns.
_COMPARE = {"=": np.equal, "<": np.less, "<=": np.less_equal,
            ">": np.greater, ">=": np.greater_equal}


class ColumnCompare(Operator):
    """Same-owner comparison of two projected numeric columns: the
    nodes owning one value ``l`` of the ``left`` containers and one
    value ``r`` of the ``right`` ones with ``l <op> scale * r``.

    Each side's owners are its values' parents climbed ``ascend``
    levels (``ContScan → Parent^ascend``), and both columns decode in
    bulk (``sort_keys``, :mod:`repro.compression.kernels`), so the
    conjunct is decided once for every binding — an owner missing
    either value fails it, like the reference's empty arithmetic.
    :meth:`build` refuses, before any counter, where ``ThetaJoin``
    would or an owner holds two values of one side; callers then
    check the conjunct per binding.  Owners leave in document order;
    once built, the operator is read-only.
    """

    def __init__(self, repository: CompressedRepository,
                 left_paths: list[str], left_ascend: int,
                 right_paths: list[str], right_ascend: int, op: str,
                 scale: float, column: str):
        self._parents = repository.structure.parents
        self._ascend = (left_ascend, right_ascend)
        self._sides: list | None = None
        self.left = [repository.container(path) for path in left_paths]
        self.right = [repository.container(path) for path in right_paths]
        self.op = op
        self.scale = scale
        self.column = column

    def build(self) -> bool:
        """Each side's ``(owners, float64 values)``, once; ``False``
        means check per binding."""
        if self._sides is None:
            self._sides = [_owned_values(containers, ascend,
                                         self._parents)
                           for containers, ascend in zip(
                               (self.left, self.right), self._ascend)]
        return None not in self._sides

    def _batches(self, size: int) -> Iterator[RecordBatch]:
        if not self.build():
            raise QueryTypeError(
                "ColumnCompare needs numeric record containers with a "
                "decode kernel and one value per owner on each side")
        _count("container_scans", len(self.left) + len(self.right))
        (left_owners, left), (right_owners, right) = self._sides
        owners, at_left, at_right = np.intersect1d(
            left_owners, right_owners, assume_unique=True,
            return_indices=True)
        # The product the reference computes, in float64.
        ids = owners[_COMPARE[self.op](left[at_left],
                                       self.scale * right[at_right])]
        for start in range(0, len(ids), size):
            yield RecordBatch({
                self.column: NodeColumn(ids[start:start + size])})


def _owned_values(containers, ascend: int, parents: np.ndarray):
    """``(owners, values)`` of every slot of ``containers``, the values
    as float64; ``None`` unless each is a numeric record container with
    a decode kernel, float64 is exact (no int beyond 2**53) and no
    owner holds two values."""
    if not containers or any(c.is_blob or c.value_type not in
                             ("int", "float") for c in containers):
        return None
    arrays = [c.as_arrays() for c in containers]
    keys = [a.sort_keys for a in arrays]
    if any(k is None or (k.dtype.kind == "i" and len(k)
                         and np.abs(k).max() > 2 ** 53) for k in keys):
        return None
    owners = np.concatenate([a.owners(ascend, parents) for a in arrays])
    if len(np.unique(owners)) != len(owners):
        return None
    return owners, np.concatenate([k.astype(np.float64) for k in keys])


class Sort(Operator):
    """Sort rows stably on ``columns``, in significance order (needed
    only when order was lost) — downstream order-dependent operators
    (``MergeJoin``) are then statically known to be safe."""

    INPUTS = ("_source",)

    def __init__(self, source: Iterable[Row], columns: tuple[str, ...]):
        self._source = source
        self.columns = tuple(columns)

    def _batches(self, size: int) -> Iterator[RecordBatch]:
        ordered = sorted(input_rows(self._source, size),
                         key=lambda row: [row[c] for c in self.columns])
        return batches_from_rows(ordered, size)


# -- decompression ---------------------------------------------------------------

class Decompress(Operator):
    """Replace a compressed column with its decoded string value.

    Values stay compressed through selections and joins; a plan
    decodes only what it must compare across compressed domains — a
    ``MergeJoin``'s keys — exactly once per value (the plan verifier's
    duplicate-Decompress rule).  Results decode at materialization.
    """

    INPUTS = ("_source",)

    def __init__(self, source: Iterable[Row], columns: list[str]):
        self._source = source
        self.columns = tuple(columns)

    def _batches(self, size: int) -> Iterator[RecordBatch]:
        stats = STATS.get()
        for batch in _input_batches(self._source, size):
            columns = batch.columns()
            for name in self.columns:
                # A NodeColumn holds nothing compressed to decode.
                if isinstance(columns.get(name), (ValueColumn, ItemColumn)):
                    columns[name] = ItemColumn([
                        item.decode(stats)
                        if isinstance(item, CompressedItem) else item
                        for item in columns[name].to_items()])
            yield RecordBatch(columns, len(batch))
