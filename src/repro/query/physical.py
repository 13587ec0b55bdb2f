"""The physical operators of the XQueC query engine (paper §4).

Three operator classes, exactly as the paper groups them:

* **data access** — :class:`ContScan`, :class:`ContAccess`,
  :class:`ContSubstring`, :class:`StructureSummaryAccess`,
  :class:`Parent`, :class:`Child`, :class:`Descendant`,
  :class:`TextContent`, :class:`AttributeContent`;
* **data combination** — :class:`Select`, :class:`NodeSet`,
  :class:`Concat`, :class:`MergeJoin`, :class:`HashJoin`,
  :class:`ThetaJoin`, :class:`NestedLoopJoin`, :class:`Project`,
  :class:`Distinct`, :class:`Sort`;
* **(de)compression / serialization** — :class:`Decompress`,
  :class:`CompressConstant`, :class:`XMLSerialize`.

Operators move data through one **batch-pull protocol** (DESIGN.md
§13): an operator implements ``_batches(size)``, ``batches(size)``
yields its :class:`~repro.query.batch.RecordBatch` columnar slices, and
the scan/selection/join operators evaluate over numpy arrays — container
slot ranges for compressed-domain predicates, ``np.searchsorted`` for
merge keys.  Iterating an operator yields *rows* (dicts mapping column
names to items): the same batches, flattened, so plans compose by
nesting either way.  Operators whose work is per-row (``Child``
expansion, nested-loop conditions, blob-container fallbacks) run one
private row generator over their input's batches and chunk it.

Order guarantees mirror §4: ``StructureSummaryAccess`` emits element
ids in document order, ``Parent``/``Child`` preserve the order of
their input, and ``ContScan``/``ContAccess`` emit in *value* order —
which is what lets plans use :class:`MergeJoin` without sorting.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from time import perf_counter_ns

import numpy as np

from repro.errors import QueryTypeError, StorageError
from repro.obs import runtime
from repro.query.batch import (DEFAULT_BATCH_SIZE, ItemColumn,
                               NodeColumn, RecordBatch, ValueColumn,
                               batches_from_rows, rows_of_batches)
from repro.query.context import CompressedItem, EvaluationStats, NodeItem
from repro.storage.repository import CompressedRepository

Row = dict


def _traced(name: str, batches: Iterator[RecordBatch]
            ) -> Iterator[RecordBatch]:
    """Wrap an operator's batch stream with telemetry when active.

    Observes one ``span.<name>`` histogram entry for the full
    iteration's wall time and counts ``op.<name>.rows`` (from batch
    lengths) and ``op.<name>.batches``; with no active telemetry the
    stream is returned untouched, so the disabled-mode cost is one
    global load and an ``is None`` test.
    """
    telemetry = runtime.ACTIVE
    if telemetry is None:
        return batches

    def traced() -> Iterator[RecordBatch]:
        metrics = telemetry.metrics
        rows = 0
        count = 0
        start = perf_counter_ns()
        try:
            for batch in batches:
                rows += len(batch)
                count += 1
                yield batch
        finally:
            metrics.observe(f"span.{name}", perf_counter_ns() - start)
            metrics.add(f"op.{name}.rows", rows)
            metrics.add(f"op.{name}.batches", count)
    return traced()


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
    """The ``int64`` element ids of one (compacted) batch column."""
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
                 id_column: str, value_column: str,
                 stats: EvaluationStats | None = None):
        self._container = repository.container(path)
        self._id_column = id_column
        self._value_column = value_column
        self._stats = stats
        self.container = self._container
        self.id_column = id_column
        self.value_column = value_column

    def _scan_rows(self) -> Iterator[Row]:
        container = self._container
        codec = container.codec
        value_type = container.value_type
        for parent_id, compressed in container.scan():
            yield {self._id_column: NodeItem(parent_id),
                   self._value_column: CompressedItem(
                       compressed, codec, value_type)}

    def _batches(self, size: int) -> Iterator[RecordBatch]:
        if self._stats is not None:
            self._stats.container_scans += 1
        container = self._container
        if container.is_blob:  # no record slots: decompressing scan
            yield from batches_from_rows(self._scan_rows(), size)
            return
        arrays = container.as_arrays()
        # Mirror scan()'s access accounting without building rows.
        if runtime.ACTIVE is not None:
            runtime.add("container.scans")
        if runtime.RECORDER is not None:
            runtime.RECORDER.record_access(container.path, "scans")
        for start in range(0, arrays.count, size):
            stop = min(start + size, arrays.count)
            yield RecordBatch({
                self._id_column:
                    NodeColumn(arrays.parent_ids[start:stop]),
                self._value_column:
                    ValueColumn(container, np.arange(start, stop))})


class ContAccess(Operator):
    """Interval access into a container (binary search, §2.2).

    Resolves the interval to one slot range (``interval_bounds``)
    and emits array slices of it.
    """

    def __init__(self, repository: CompressedRepository, path: str,
                 id_column: str, value_column: str,
                 low: str | None = None, high: str | None = None,
                 low_inclusive: bool = True, high_inclusive: bool = True,
                 stats: EvaluationStats | None = None):
        self._container = repository.container(path)
        self._id_column = id_column
        self._value_column = value_column
        self._interval = (low, high, low_inclusive, high_inclusive)
        self._stats = stats
        self.container = self._container
        self.id_column = id_column
        self.value_column = value_column
        self.interval = self._interval

    def _interval_rows(self) -> Iterator[Row]:
        container = self._container
        codec = container.codec
        value_type = container.value_type
        low, high, low_inc, high_inc = self._interval
        for parent_id, compressed in container.interval_search(
                low, high, low_inc, high_inc):
            yield {self._id_column: NodeItem(parent_id),
                   self._value_column: CompressedItem(
                       compressed, codec, value_type)}

    def _batches(self, size: int) -> Iterator[RecordBatch]:
        if self._stats is not None:
            self._stats.container_accesses += 1
        container = self._container
        low, high, low_inc, high_inc = self._interval
        if runtime.RECORDER is not None:
            kind = "eq" if (low is not None and low == high
                            and low_inc and high_inc) else "ineq"
            runtime.RECORDER.record_predicate(container.path, kind)
        if container.is_blob:  # no record slots: filtered full scan
            yield from batches_from_rows(self._interval_rows(), size)
            return
        arrays = container.as_arrays()
        start, end = container.interval_bounds(low, high, low_inc,
                                               high_inc)
        for lo in range(start, end, size):
            hi = min(lo + size, end)
            yield RecordBatch({
                self._id_column: NodeColumn(arrays.parent_ids[lo:hi]),
                self._value_column:
                    ValueColumn(container, np.arange(lo, hi))})


class ContSubstring(Operator):
    """Candidate access into a container for a substring needle: the
    records whose value may contain it, in slot order.

    A superset (``substring_candidates``: q-gram matches, any letter
    case) in ``ContAccess``'s shape — whoever means ``contains`` or
    ``word-contains`` re-checks the candidates it binds.
    """

    def __init__(self, repository: CompressedRepository, path: str,
                 id_column: str, value_column: str, needle: str,
                 stats: EvaluationStats | None = None):
        self._stats = stats
        self.container = repository.container(path)
        self.id_column = id_column
        self.value_column = value_column
        self.needle = needle

    def _batches(self, size: int) -> Iterator[RecordBatch]:
        if self._stats is not None:
            self._stats.container_accesses += 1
        container = self.container
        slots = container.substring_candidates(self.needle)
        if slots is None:
            raise QueryTypeError(
                f"container {container.path!r} has no substring "
                f"candidates for {self.needle!r}")
        parents = container.as_arrays().parent_ids
        for start in range(0, len(slots), size):
            part = slots[start:start + size]
            yield RecordBatch({
                self.id_column: NodeColumn(parents[part]),
                self.value_column: ValueColumn(container, part)})


class StructureSummaryAccess(Operator):
    """All element ids reachable by a path, in document order."""

    def __init__(self, repository: CompressedRepository,
                 steps: list[tuple[str, str]], column: str,
                 stats: EvaluationStats | None = None):
        self._repository = repository
        self._steps = steps
        self._column = column
        self._stats = stats
        self.column = column

    def _merged_ids(self) -> np.ndarray:
        merged: set[int] = set()
        for node in self._repository.resolve_path(self._steps):
            merged.update(node.extent)
        ids = np.fromiter(merged, dtype=np.int64, count=len(merged))
        ids.sort()
        return ids

    def _batches(self, size: int) -> Iterator[RecordBatch]:
        if self._stats is not None:
            self._stats.summary_accesses += 1
        ids = self._merged_ids()
        for start in range(0, len(ids), size):
            yield RecordBatch({
                self._column: NodeColumn(ids[start:start + size])})


class OpaqueSource(Operator):
    """Plan placeholder for a row stream no operator produces — a
    for-clause source evaluated per binding, the bindings enclosing a
    nested FLWOR; the verifier treats it as an open schema."""

    def __init__(self, label: str):
        self.label = label

    def _batches(self, size: int) -> Iterator[RecordBatch]:
        return iter(())


class Child(Operator):
    """Append each input node's children (optionally tag-filtered).

    Children of one node are emitted in document order; input order is
    preserved (§4).  Per-node fan-out is irregular, so the expansion
    is a row generator over the input's batches, chunked.
    """

    INPUTS = ("_source",)

    def __init__(self, source: Iterable[Row],
                 repository: CompressedRepository,
                 input_column: str, output_column: str,
                 tag: str | None = None,
                 stats: EvaluationStats | None = None):
        self._source = source
        self._repository = repository
        self._input = input_column
        self._output = output_column
        self._tag = tag
        self._stats = stats
        self.input_column = input_column
        self.output_column = output_column

    def _expand(self, size: int) -> Iterator[Row]:
        structure = self._repository.structure
        tag_code = (None if self._tag is None
                    else self._repository.dictionary.code_of(self._tag))
        if self._tag is not None and tag_code is None:
            return  # tag absent from the document: no children at all
        for row in input_rows(self._source, size):
            node = row[self._input]
            for child_id in structure.children_of(node.node_id, tag_code):
                if self._stats is not None:
                    self._stats.nodes_visited += 1
                yield {**row, self._output: NodeItem(child_id)}

    def _batches(self, size: int) -> Iterator[RecordBatch]:
        return batches_from_rows(self._expand(size), size)


class Parent(Operator):
    """Append each input node's parent; preserves input order (§4).

    Gathers parents from the structure tree's cached parent-id
    array in one indexing operation per batch.
    """

    INPUTS = ("_source",)

    def __init__(self, source: Iterable[Row],
                 repository: CompressedRepository,
                 input_column: str, output_column: str,
                 stats: EvaluationStats | None = None):
        self._source = source
        self._repository = repository
        self._input = input_column
        self._output = output_column
        self._stats = stats
        self.input_column = input_column
        self.output_column = output_column

    def _batches(self, size: int) -> Iterator[RecordBatch]:
        parents = self._repository.structure.parent_array()
        for batch in _input_batches(self._source, size):
            batch = batch.compact()
            if not len(batch):
                continue
            ids = node_ids(batch, self._input)
            out_parents = parents[ids]
            keep = out_parents >= 0
            if not keep.all():
                batch = batch.take(np.flatnonzero(keep))
                out_parents = out_parents[keep]
            if not len(batch):
                continue
            if self._stats is not None:
                self._stats.nodes_visited += len(batch)
            yield batch.with_column(self._output,
                                    NodeColumn(out_parents))


class Descendant(Operator):
    """Append each input node's descendants (optionally tag-filtered)."""

    INPUTS = ("_source",)

    def __init__(self, source: Iterable[Row],
                 repository: CompressedRepository,
                 input_column: str, output_column: str,
                 tag: str | None = None,
                 stats: EvaluationStats | None = None):
        self._source = source
        self._repository = repository
        self._input = input_column
        self._output = output_column
        self._tag = tag
        self._stats = stats
        self.input_column = input_column
        self.output_column = output_column

    def _expand(self, size: int) -> Iterator[Row]:
        structure = self._repository.structure
        tag_code = (None if self._tag is None
                    else self._repository.dictionary.code_of(self._tag))
        if self._tag is not None and tag_code is None:
            return
        for row in input_rows(self._source, size):
            node = row[self._input]
            for descendant_id in structure.descendants_of(
                    node.node_id, tag_code):
                if self._stats is not None:
                    self._stats.nodes_visited += 1
                yield {**row, self._output: NodeItem(descendant_id)}

    def _batches(self, size: int) -> Iterator[RecordBatch]:
        return batches_from_rows(self._expand(size), size)


def _concat_ranges(lo: np.ndarray, hi: np.ndarray,
                   total: int) -> np.ndarray:
    """Concatenate the integer ranges ``[lo[i], hi[i])`` vectorized."""
    counts = hi - lo
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    return np.repeat(lo, counts) + (np.arange(total) - offsets)


class TextContent(Operator):
    """Pair element ids with their immediate text content.

    The paper implements it as a hash join between the input ids and
    a ``ContScan`` of the text container; here the hash table is
    ``np.searchsorted`` over the container's parent-id array sorted by
    parent (a vectorized index-nested-loop with the same output
    order).  Blob containers, which have no record slots, keep the
    literal hash join.
    """

    INPUTS = ("_source",)

    def __init__(self, source: Iterable[Row],
                 repository: CompressedRepository,
                 input_column: str, output_column: str,
                 container_path: str,
                 stats: EvaluationStats | None = None):
        self._source = source
        self._input = input_column
        self._output = output_column
        self._stats = stats
        self.input_column = input_column
        self.output_column = output_column
        self.container = repository.container(container_path)

    def _hash_join_rows(self, size: int) -> Iterator[Row]:
        container = self.container
        codec = container.codec
        value_type = container.value_type
        by_parent: dict[int, list[CompressedItem]] = {}
        for parent_id, compressed in container.scan():
            by_parent.setdefault(parent_id, []).append(
                CompressedItem(compressed, codec, value_type))
        for row in input_rows(self._source, size):
            node = row[self._input]
            for item in by_parent.get(node.node_id, ()):
                yield {**row, self._output: item}

    def _batches(self, size: int) -> Iterator[RecordBatch]:
        if self._stats is not None:
            self._stats.container_scans += 1
            self._stats.hash_joins += 1
        container = self.container
        if container.is_blob:  # no record slots: literal hash join
            yield from batches_from_rows(self._hash_join_rows(size), size)
            return
        arrays = container.as_arrays()
        # Mirror scan()'s access accounting without building rows.
        if runtime.ACTIVE is not None:
            runtime.add("container.scans")
        if runtime.RECORDER is not None:
            runtime.RECORDER.record_access(container.path, "scans")
        # Stable sort by parent keeps each node's texts in value order,
        # exactly the order the hash join's scan built its buckets in.
        order = np.argsort(arrays.parent_ids, kind="stable")
        sorted_parents = arrays.parent_ids[order]
        for batch in _input_batches(self._source, size):
            batch = batch.compact()
            if not len(batch):
                continue
            ids = node_ids(batch, self._input)
            lo = np.searchsorted(sorted_parents, ids, side="left")
            hi = np.searchsorted(sorted_parents, ids, side="right")
            total = int((hi - lo).sum())
            if total == 0:
                continue
            source_rows = np.repeat(np.arange(len(ids)), hi - lo)
            slots = order[_concat_ranges(lo, hi, total)]
            yield batch.take(source_rows).with_column(
                self._output, ValueColumn(container, slots))


class AttributeContent(Operator):
    """Pair element ids with one attribute's compressed value."""

    INPUTS = ("_inner",)

    def __init__(self, source: Iterable[Row],
                 repository: CompressedRepository,
                 input_column: str, output_column: str,
                 container_path: str,
                 stats: EvaluationStats | None = None):
        self._inner = TextContent(source, repository, input_column,
                                  output_column, container_path, stats)

    def _batches(self, size: int) -> Iterator[RecordBatch]:
        return self._inner.batches(size)


# -- data combination operators --------------------------------------------------

class Select(Operator):
    """Filter rows by a Python predicate over the row.

    The predicate callable is opaque; the keyword-only metadata
    declares what it does so the plan verifier can check it statically:
    ``column`` names the (possibly compressed) column it tests,
    ``predicate_kind`` is the paper's capability kind (``"eq"``,
    ``"ineq"`` or ``"wild"``) when the test runs *in the compressed
    domain*, and ``references`` lists every column the predicate reads.

    ``interval`` optionally declares the predicate as a value interval
    ``(low, high, low_inclusive, high_inclusive)`` over ``column`` —
    the declaration ``_batches`` compiles into a vectorized mask:
    when the column is a :class:`~repro.query.batch.ValueColumn`, the
    container's sortedness turns the interval into one slot range and
    the predicate into two array comparisons, with no per-row calls.
    The callable must implement exactly the declared interval (it
    remains the source of truth for any other column representation).
    """

    INPUTS = ("_source",)

    def __init__(self, source: Iterable[Row], predicate, *,
                 column: str | None = None,
                 predicate_kind: str | None = None,
                 references: tuple[str, ...] | None = None,
                 interval: tuple | None = None):
        self._source = source
        self._predicate = predicate
        self.column = column
        self.predicate_kind = predicate_kind
        self.references = tuple(references) if references is not None \
            else ((column,) if column is not None else None)
        self.interval = tuple(interval) if interval is not None else None
        self._bounds_cache: dict[int, tuple[int, int] | None] = {}

    def _vector_mask(self, batch: RecordBatch) -> np.ndarray | None:
        """Mask from the declared interval, or ``None`` to fall back."""
        if self.interval is None or self.column is None:
            return None
        try:
            column = batch.column(self.column)
        except KeyError:
            return None
        if not isinstance(column, ValueColumn):
            return None
        container = column.container
        key = id(container)
        if key not in self._bounds_cache:
            try:
                self._bounds_cache[key] = container.interval_positions(
                    *self.interval)
            except StorageError:
                self._bounds_cache[key] = None
        bounds = self._bounds_cache[key]
        if bounds is None:
            return None
        return column.interval_mask(*bounds)

    def _batches(self, size: int) -> Iterator[RecordBatch]:
        predicate = self._predicate
        for batch in _input_batches(self._source, size):
            mask = self._vector_mask(batch)
            if mask is None:
                batch = batch.compact()
                mask = np.empty(len(batch), dtype=bool)
                for i, row in enumerate(batch.to_rows()):
                    mask[i] = bool(predicate(row))
            out = batch.filter(mask)
            if len(out):
                yield out


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
        parts = [node_ids(batch, self.column) for batch in
                 map(RecordBatch.compact, _input_batches(source, size))
                 if len(batch)]
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


class Project(Operator):
    """Keep only the named columns."""

    INPUTS = ("_source",)

    def __init__(self, source: Iterable[Row], columns: list[str]):
        self._source = source
        self._columns = columns
        self.columns = tuple(columns)

    def _batches(self, size: int) -> Iterator[RecordBatch]:
        for batch in _input_batches(self._source, size):
            yield batch.project(self._columns)


class HashJoin(Operator):
    """Equi-join on key functions; builds on the right input.

    Output order follows the probe (left) input.  ``left_column`` /
    ``right_column`` optionally name the key columns so the verifier
    can check that a compressed-domain join compares values from one
    compressed domain (same source model).
    """

    INPUTS = ("_left", "_right")

    def __init__(self, left: Iterable[Row], right: Iterable[Row],
                 left_key, right_key,
                 stats: EvaluationStats | None = None, *,
                 left_column: str | None = None,
                 right_column: str | None = None):
        self._left = left
        self._right = right
        self._left_key = left_key
        self._right_key = right_key
        self._stats = stats
        self.left_column = left_column
        self.right_column = right_column

    def _probe(self, size: int) -> Iterator[Row]:
        if self._stats is not None:
            self._stats.hash_joins += 1
        index: dict = {}
        for row in input_rows(self._right, size):
            index.setdefault(self._right_key(row), []).append(row)
        for row in input_rows(self._left, size):
            for match in index.get(self._left_key(row), ()):
                yield {**row, **match}

    def _batches(self, size: int) -> Iterator[RecordBatch]:
        return batches_from_rows(self._probe(size), size)


class _BatchCursor:
    """Streaming cursor over one merge-join input.

    Holds exactly one (compacted) batch plus its key array at a time;
    equal-key *runs* are located with ``np.searchsorted`` and may span
    batch boundaries, in which case only the run is buffered.
    """

    def __init__(self, batches: Iterator[RecordBatch], key,
                 column: str | None):
        self._batches = batches
        self._key = key
        self._column = column
        self._batch: RecordBatch | None = None
        self._keys: np.ndarray | None = None
        self._pos = 0

    def _fetch(self) -> bool:
        for batch in self._batches:
            batch = batch.compact()
            if not len(batch):
                continue
            keys = np.empty(len(batch), dtype=object)
            key = self._key
            if key is None:
                keys[:] = batch.column(self._column).to_items()
            else:
                for i, row in enumerate(batch.to_rows()):
                    keys[i] = key(row)
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
    both inputs really arrive sorted on their keys.  Declare the key
    columns via ``left_column``/``right_column`` and the plan verifier
    proves (or refutes) that order statically; a key function ``None``
    then compares the declared column's items themselves.

    Both sides stream: one batch per side is buffered, plus the
    current equal-key run.  The keys below both batches' last key have
    every row in the batches at hand and join in one vectorized step
    (``np.searchsorted`` of one key array in the other); the run at
    that key, which may continue in the next batches, merges row-run
    by row-run.
    """

    INPUTS = ("_left", "_right")

    def __init__(self, left: Iterable[Row], right: Iterable[Row],
                 left_key, right_key, *,
                 left_column: str | None = None,
                 right_column: str | None = None):
        self._left = left
        self._right = right
        self._left_key = left_key
        self._right_key = right_key
        self.left_column = left_column
        self.right_column = right_column

    def _batches(self, size: int) -> Iterator[RecordBatch]:
        left = _BatchCursor(_input_batches(self._left, size),
                            self._left_key, self.left_column)
        right = _BatchCursor(_input_batches(self._right, size),
                             self._right_key, self.right_column)
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


class NestedLoopJoin(Operator):
    """Theta-join by nested iteration (the baseline engines' only join)."""

    INPUTS = ("_left", "_right")

    def __init__(self, left: Iterable[Row], right: Iterable[Row],
                 condition, *,
                 references: tuple[str, ...] | None = None):
        self._left = left
        self._right = right
        self._condition = condition
        self.references = tuple(references) if references is not None \
            else None

    def _loop(self, size: int) -> Iterator[Row]:
        right_rows = list(input_rows(self._right, size))
        for left_row in input_rows(self._left, size):
            for right_row in right_rows:
                if self._condition(left_row, right_row):
                    yield {**left_row, **right_row}

    def _batches(self, size: int) -> Iterator[RecordBatch]:
        return batches_from_rows(self._loop(size), size)


class ThetaJoin(Operator):
    """Sort-based inequality join: ``scale * key <op> probe`` (§2.2/§4).

    Containers are value-sorted and the numeric codecs order
    preserving, so the scaled ``sort_keys`` of the key containers *are*
    the sorted run, paired with their owning elements (``ascend``
    ``Parent`` gathers up).  A probe is one ``np.searchsorted`` per
    outer value; its slot range's length is the match count.
    :meth:`build` refuses — before any counter or journal entry —
    wherever position is not the comparison; callers then evaluate
    the condition per pair.
    """

    INPUTS = ("_left",)

    def __init__(self, left: Iterable[Row] | None,
                 repository: CompressedRepository,
                 container_paths: list[str], op: str, probe_key,
                 output_column: str, *, scale: float = 1.0,
                 ascend: int = 0,
                 stats: EvaluationStats | None = None):
        self._left = left
        self._parents = repository.structure.parent_array
        self._probe_key = probe_key
        self._scale = scale
        self._ascend = ascend
        self._stats = stats
        self._keys: np.ndarray | None = None
        self.containers = [repository.container(path)
                           for path in container_paths]
        self.op = op
        self.output_column = output_column
        #: owning element per key slot, aligned with the sorted keys.
        self.owners: np.ndarray | None = None

    def numeric_ordered(self) -> bool:
        """Every key container keeps record slots in numeric order."""
        return bool(self.containers) and all(
            not c.is_blob and c.value_type in ("int", "float")
            for c in self.containers)

    def build(self) -> bool:
        """Assemble the sorted key run once; ``False`` means fall back."""
        if self._keys is not None:
            return True
        arrays = [c.as_arrays() for c in self.containers] \
            if self.numeric_ordered() else [None]
        if any(a is None or a.sort_keys is None for a in arrays):
            return False  # blob, string-typed or kernel-less container
        # The product the reference computes, in float64 — never
        # probe / scale, which rounds differently.
        keys = np.concatenate([self._scale * a.sort_keys.astype(np.float64)
                               for a in arrays])
        owners = np.concatenate([a.parent_ids for a in arrays])
        for _ in range(self._ascend):
            up = self._parents()[owners]
            owners = np.where(up >= 0, up, owners)
        if len(np.unique(owners)) != len(owners):
            return False  # an element owns several keys, not one value
        if len(arrays) > 1:
            order = np.argsort(keys, kind="stable")
            keys, owners = keys[order], owners[order]
        self._keys, self.owners = keys, owners
        return True

    def probe(self, value: float) -> tuple[int, int]:
        """Slot range of the keys with ``key <op> value``."""
        if self._stats is not None:
            self._stats.container_accesses += 1
        if runtime.RECORDER is not None:
            for container in self.containers:
                runtime.RECORDER.record_predicate(container.path, "ineq")
        side = "left" if self.op in ("<", ">=") else "right"
        cut = int(np.searchsorted(self._keys, value, side=side))
        return (0, cut) if self.op in ("<", "<=") \
            else (cut, len(self._keys))

    def _joined(self, size: int) -> Iterator[Row]:
        for row in input_rows(self._left, size):
            start, end = self.probe(self._probe_key(row))
            # Matches of one outer row leave in document order.
            for node_id in np.sort(self.owners[start:end]).tolist():
                yield {**row, self.output_column: NodeItem(node_id)}

    def _batches(self, size: int) -> Iterator[RecordBatch]:
        if not self.build():
            raise QueryTypeError(
                "ThetaJoin needs numeric-ordered key containers with "
                "one key per owning element")
        return batches_from_rows(self._joined(size), size)


class Distinct(Operator):
    """Drop duplicate rows (by a key function)."""

    INPUTS = ("_source",)

    def __init__(self, source: Iterable[Row], key, *,
                 columns: tuple[str, ...] | None = None):
        self._source = source
        self._key = key
        self.columns = tuple(columns) if columns is not None else None

    def _batches(self, size: int) -> Iterator[RecordBatch]:
        seen: set = set()
        key_of = self._key
        for batch in _input_batches(self._source, size):
            batch = batch.compact()
            if not len(batch):
                continue
            mask = np.empty(len(batch), dtype=bool)
            for i, row in enumerate(batch.to_rows()):
                key = key_of(row)
                if key in seen:
                    mask[i] = False
                else:
                    seen.add(key)
                    mask[i] = True
            out = batch.filter(mask)
            if len(out):
                yield out


class Sort(Operator):
    """Sort rows by a key function (needed only when order was lost).

    ``columns`` optionally declares which columns the key reads, in
    significance order — downstream order-dependent operators
    (``MergeJoin``) are then statically known to be safe.
    """

    INPUTS = ("_source",)

    def __init__(self, source: Iterable[Row], key, reverse: bool = False,
                 *, columns: tuple[str, ...] | None = None):
        self._source = source
        self._key = key
        self._reverse = reverse
        self.columns = tuple(columns) if columns is not None else None

    def _batches(self, size: int) -> Iterator[RecordBatch]:
        ordered = sorted(input_rows(self._source, size),
                         key=self._key, reverse=self._reverse)
        return batches_from_rows(ordered, size)


# -- compression / decompression operators -------------------------------------

class Decompress(Operator):
    """Replace a compressed column with its decoded string value.

    In the paper's plans (Figure 5) this sits at the very top: values
    stay compressed through selections and joins, and only the final
    results are decompressed — exactly once per value (the plan
    verifier's missing/duplicate-Decompress rule).
    """

    INPUTS = ("_source",)

    def __init__(self, source: Iterable[Row], columns: list[str],
                 stats: EvaluationStats):
        self._source = source
        self._columns = columns
        self._stats = stats
        self.columns = tuple(columns)

    def _decoded_column(self, column):
        stats = self._stats
        if isinstance(column, ValueColumn):
            return ItemColumn([item.decode(stats)
                               for item in column.to_items()])
        if isinstance(column, ItemColumn):
            return ItemColumn([
                item.decode(stats) if isinstance(item, CompressedItem)
                else item for item in column.to_items()])
        return column  # NodeColumn: nothing compressed to decode

    def _batches(self, size: int) -> Iterator[RecordBatch]:
        targets = self._columns
        for batch in _input_batches(self._source, size):
            batch = batch.compact()
            columns = batch.columns()
            for name in targets:
                if name in columns:
                    columns[name] = self._decoded_column(columns[name])
            yield RecordBatch(columns, batch.raw_length)


class XMLSerialize(Operator):
    """Render value columns of each row as plain strings (plan sink).

    The topmost operator of the paper's plans: by the time rows reach
    serialization every value must have passed through ``Decompress``
    exactly once.  The invariant is enforced statically by the plan
    verifier and dynamically here — a :class:`CompressedItem` reaching
    serialization raises :class:`~repro.errors.QueryTypeError` instead
    of silently emitting compressed bytes.
    """

    INPUTS = ("_source",)

    def __init__(self, source: Iterable[Row],
                 columns: list[str] | tuple[str, ...]):
        self._source = source
        self.columns = tuple(columns)

    def _serialized(self, size: int) -> Iterator[Row]:
        for row in input_rows(self._source, size):
            out = dict(row)
            for column in self.columns:
                item = out.get(column)
                if isinstance(item, CompressedItem):
                    raise QueryTypeError(
                        f"column {column!r} reached XMLSerialize still "
                        "compressed; plans must Decompress every "
                        "serialized value exactly once")
                if not isinstance(item, str):
                    out[column] = str(item)
            yield out

    def _batches(self, size: int) -> Iterator[RecordBatch]:
        return batches_from_rows(self._serialized(size), size)


class CompressConstant:
    """Compress a query constant once with a container's source model.

    Not an iterator — a helper the optimizer uses to push a comparison
    into the compressed domain (one encode instead of N decodes).
    """

    def __init__(self, repository: CompressedRepository, path: str):
        self._codec = repository.container(path).codec

    def encode(self, constant: str):
        return self._codec.try_encode(constant)
