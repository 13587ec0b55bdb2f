"""The physical operators of the XQueC query engine (paper §4).

The operators the optimizer's plans contain, in the paper's three
groups:

* **data access** — :class:`ContScan`, :class:`ContAccess`,
  :class:`ContSubstring`, :class:`StructureSummaryAccess`,
  :class:`Parent`;
* **data combination** — :class:`NodeSet`, :class:`FirstHit`,
  :class:`Concat`, :class:`MergeJoin`, :class:`ColumnCompare`,
  :class:`Sort`, and :class:`ThetaJoin` — a sorted key run the
  evaluator probes per outer binding, not an input;
* **decompression** — :class:`Decompress`.  Figure 5's final
  XMLSerialize step is the materialization of the
  :class:`~repro.query.engine.QueryResult`, not an operator.

Operators hand over whole columns (DESIGN.md §13): ``run()`` returns
an operator's output as a dict of equal-length named columns, and an
operator's inputs are operators whose ``run()`` it calls.  A node
column is an ``int64`` array of element ids, a decoded column an
object array, and a value column :class:`Slots` — record slots into
its containers, so values stay compressed in place until
:class:`Decompress` decodes them.  The scan/selection/join operators
are numpy passes over those arrays: container slot ranges for
compressed-domain predicates, ``np.searchsorted`` for merge keys.

Order guarantees mirror §4: ``StructureSummaryAccess``, ``NodeSet`` and
``FirstHit`` emit element ids in document order, ``Parent`` preserves
the order of its input, and ``ContScan``/``ContAccess`` emit in
*value* order — which is what lets plans use :class:`MergeJoin` without
sorting.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

from repro.errors import QueryTypeError
from repro.query.context import CompressedItem
from repro.storage.repository import CompressedRepository

#: the traced run's Telemetry while ``QueryEngine.execute`` evaluates
#: it.  Context-local: a thread starts with an empty context, so a
#: concurrent untraced run reads ``None`` and never reports here.
TELEMETRY: ContextVar = ContextVar("telemetry", default=None)

#: the running query's EvaluationStats, which the operators count
#: into; context-local like ``TELEMETRY`` (``None``: nobody counts).
STATS: ContextVar = ContextVar("stats", default=None)


@contextmanager
def counting(stats, telemetry=None):
    """One query run: operators run inside count into ``stats`` and,
    traced, report to ``telemetry``, never into themselves (shared)."""
    stats_token = STATS.set(stats)
    telemetry_token = TELEMETRY.set(telemetry)
    try:
        yield stats
    finally:
        TELEMETRY.reset(telemetry_token)
        STATS.reset(stats_token)


def _count(counter: str, amount: int = 1) -> None:
    """Add ``amount`` to the running query's ``counter``, if any."""
    stats = STATS.get()
    if stats is not None:
        setattr(stats, counter, getattr(stats, counter) + amount)


class Slots:
    """A value column: per row, the record slot its value sits at.

    ``segments`` are ``(container, int64 slots)`` pairs in row order —
    one per container, or more where :class:`Concat` appended another
    run — so the codewords never leave their containers.  Indexing
    picks rows like an array's.
    """

    __slots__ = ("segments",)

    def __init__(self, segments):
        self.segments = tuple(segments)

    def __len__(self) -> int:
        return sum(len(slots) for _, slots in self.segments)

    def __getitem__(self, rows) -> "Slots":
        if len(self.segments) == 1:
            ((container, slots),) = self.segments
            return Slots([(container, slots[rows])])
        # Each picked row's segment, then one segment per run of them.
        which = np.repeat(np.arange(len(self.segments)),
                          [len(slots) for _, slots in self.segments])[rows]
        picked = np.concatenate([s for _, s in self.segments])[rows]
        cuts = np.flatnonzero(np.diff(which)) + 1
        return Slots((self.segments[part[0]][0], slots) for part, slots
                     in zip(np.split(which, cuts), np.split(picked, cuts))
                     if len(part))


def _rows(columns: dict) -> int:
    """How many rows an operator's output holds."""
    return len(next(iter(columns.values())))


class Operator:
    """Base class: an operator whose whole output one call computes.

    Subclasses implement ``_run()``, returning their output columns;
    :meth:`run` wraps it in the run's telemetry span.

    ``INPUTS`` names the attributes holding the operator's input
    operators, in plan order — the static plan verifier
    (:mod:`repro.lint.plan`) walks plans through it without executing
    them.
    """

    #: attribute names of this operator's input operators, in order.
    INPUTS: tuple[str, ...] = ()

    def run(self) -> dict:
        """The operator's output, column name -> column; on a traced
        run one span named after the class, with its ``rows``."""
        telemetry = TELEMETRY.get()
        if telemetry is None:
            return self._run()
        with telemetry.span(type(self).__name__) as span:
            columns = self._run()
            span.set_attribute("rows", _rows(columns))
        return columns

    def _run(self) -> dict:
        raise NotImplementedError(
            f"{type(self).__name__} does not implement _run")

    def inputs(self) -> list:
        """The operator's input operators."""
        return [getattr(self, name) for name in self.INPUTS]


# -- data access operators ----------------------------------------------------

def _slot_columns(access, slots: np.ndarray) -> dict:
    """A record container access's rows at ``slots``: the parent ids
    and the slots themselves, no value decoded."""
    container = access.container
    slots = np.asarray(slots, dtype=np.int64)
    return {access.id_column: container.as_arrays().parent_ids[slots],
            access.value_column: Slots([(container, slots)])}


def _blob_columns(access, pairs) -> dict:
    """A blob container access's ``(parent id, compressed)`` pairs:
    a blob has no record slots, so its values are items."""
    codec, value_type = access.container.codec, access.container.value_type
    pairs = list(pairs)
    return {access.id_column: np.array([parent for parent, _ in pairs],
                                       dtype=np.int64),
            access.value_column: np.array(
                [CompressedItem(compressed, codec, value_type)
                 for _, compressed in pairs], dtype=object)}


class ContScan(Operator):
    """Scan all (elementID, compressed value) pairs of a container.

    Never materializes per-record objects: ids come straight from
    the container's cached parent-id array and values are its slots.
    """

    def __init__(self, repository: CompressedRepository, path: str,
                 id_column: str, value_column: str):
        self.container = repository.container(path)
        self.id_column = id_column
        self.value_column = value_column

    def _run(self) -> dict:
        _count("container_scans")
        container = self.container
        if container.is_blob:  # no record slots: decompressing scan
            return _blob_columns(self, container.scan())
        return _slot_columns(self, np.arange(len(container)))


class ContAccess(Operator):
    """Interval access into a container (binary search, §2.2).

    Resolves the interval to one slot range (``interval_positions``)
    and emits its rows.
    """

    def __init__(self, repository: CompressedRepository, path: str,
                 id_column: str, value_column: str,
                 low: str | None = None, high: str | None = None,
                 low_inclusive: bool = True, high_inclusive: bool = True):
        self.container = repository.container(path)
        self.id_column = id_column
        self.value_column = value_column
        self.interval = (low, high, low_inclusive, high_inclusive)

    def _run(self) -> dict:
        _count("container_accesses")
        container = self.container
        if container.is_blob:  # no record slots: filtered full scan
            return _blob_columns(
                self, container.interval_search(*self.interval))
        return _slot_columns(self, np.arange(
            *container.interval_positions(*self.interval)))


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

    def _run(self) -> dict:
        _count("container_accesses")
        container = self.container
        slots = container.substring_slots(self.needle) if self.exact \
            else container.substring_candidates(self.needle)
        if slots is None:
            raise QueryTypeError(
                f"container {container.path!r} has no substring "
                f"{'slots' if self.exact else 'candidates'} for "
                f"{self.needle!r}")
        return _slot_columns(self, slots)


class FirstHit(Operator):
    """The owners whose *first* value under ``leaves``, in document
    order, is one of the input's — what ``contains`` reads of a
    sequence: its first item.

    ``leaves`` are ``(container path, hops)`` pairs: each slot of the
    container belongs to the element ``hops`` ``Parent`` steps above
    its parent.  The input carries the owners (``column``) of some of
    those values (``value_column``, one slot segment per container) —
    exact ``ContSubstring → Parent^hops`` chains.  An owner holding one
    value is decided by counting the owner columns; one holding
    several by structure order: the first of its texts
    (``subtree_texts``), else — an attribute leaf, one value per
    element — the one of the lowest parent.  No value is decoded.
    Owners leave in document order.
    """

    INPUTS = ("_source",)

    def __init__(self, source: Operator,
                 repository: CompressedRepository,
                 leaves: list[tuple[str, int]], column: str,
                 value_column: str):
        self._source = source
        self._repository = repository
        self.leaves = tuple(leaves)
        self.column = column
        self.value_column = value_column

    def _run(self) -> dict:
        columns = self._source.run()
        if not _rows(columns):
            return {self.column: np.empty(0, dtype=np.int64)}
        hit_slots: dict[str, list] = {}
        for container, slots in columns[self.value_column].segments:
            hit_slots.setdefault(container.path, []).append(slots)
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
        found = np.unique(columns[self.column])
        several = counts[np.searchsorted(every, found)] > 1
        hits = {path: set(np.concatenate(parts).tolist())
                for path, parts in hit_slots.items()}
        firsts = [owner for owner in found[several].tolist()
                  if self._first_is_hit(owner, owned, hits)]
        return {self.column:
                np.union1d(found[~several], firsts).astype(np.int64)}

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

    def _run(self) -> dict:
        _count("summary_accesses")
        return {self.column: self.ids}


class Parent(Operator):
    """Append each input node's parent; preserves input order (§4).

    Gathers parents from the structure tree's parent column in one
    indexing operation; a row whose node is the root has none and is
    dropped.
    """

    INPUTS = ("_source",)

    def __init__(self, source: Operator,
                 repository: CompressedRepository,
                 input_column: str, output_column: str):
        self._source = source
        self._repository = repository
        self.input_column = input_column
        self.output_column = output_column

    def _run(self) -> dict:
        columns = self._source.run()
        parents = self._repository.structure.parents[
            columns[self.input_column]]
        keep = parents >= 0
        if not keep.all():
            columns = {name: column[keep]
                       for name, column in columns.items()}
            parents = parents[keep]
        _count("nodes_visited", len(parents))
        return {**columns, self.output_column: parents}


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

    What turns value-ordered ``ContAccess → Parent`` outputs (an owner
    once per matching value) into the nodes a selection binds, and
    conjuncts into set algebra.  Every other column is dropped.
    """

    INPUTS = ("_left", "_right")

    def __init__(self, left: Operator, right: Operator | None,
                 column: str, mode: str = "union"):
        if mode not in _SET_OPERATIONS:
            raise ValueError(f"unknown NodeSet mode {mode!r}")
        self._left = left
        self._right = right
        self.column = column
        self.mode = mode

    def inputs(self) -> list:
        return [self._left] if self._right is None \
            else [self._left, self._right]

    def _run(self) -> dict:
        ids = self._left.run()[self.column]
        return {self.column: np.unique(ids) if self._right is None
                else _SET_OPERATIONS[self.mode](
                    ids, self._right.run()[self.column])}


class Concat(Operator):
    """Bag union: ``left``'s rows, then ``right``'s, in the columns
    both carry — what a ``Sort`` merges several containers'
    value-ordered runs from.  A value column keeps one slot segment
    per container.  No order is established."""

    INPUTS = ("_left", "_right")

    def __init__(self, left: Operator, right: Operator):
        self._left = left
        self._right = right

    def _run(self) -> dict:
        left, right = self._left.run(), self._right.run()
        return {name: Slots(column.segments + right[name].segments)
                if isinstance(column, Slots)
                else np.concatenate((column, right[name]))
                for name, column in left.items() if name in right}


class MergeJoin(Operator):
    """1-pass merge join over inputs already sorted on their keys.

    The order-preserving container scans make this the paper's operator
    of choice for value joins (§4): no sort is needed — but *only* when
    both inputs really arrive sorted on their keys.  The join compares
    the items of its key columns ``left_column``/``right_column``,
    whose order the plan verifier proves (or refutes) statically.

    One vectorized pass: each left key's run of equal right keys is
    ``np.searchsorted`` of the left key array in the right one.  Rows
    leave by key, then left row, then right row.
    """

    INPUTS = ("_left", "_right")

    def __init__(self, left: Operator, right: Operator,
                 left_column: str, right_column: str):
        self._left = left
        self._right = right
        self.left_column = left_column
        self.right_column = right_column

    def _run(self) -> dict:
        left, right = self._left.run(), self._right.run()
        left_keys = left[self.left_column]
        right_keys = right[self.right_column]
        lo = np.searchsorted(right_keys, left_keys, side="left")
        hi = np.searchsorted(right_keys, left_keys, side="right")
        left_rows = np.repeat(np.arange(len(left_keys)), hi - lo)
        right_rows = _concat_ranges(lo, hi, len(left_rows))
        return {**{name: column[left_rows]
                   for name, column in left.items()},
                **{name: column[right_rows]
                   for name, column in right.items()}}


class ThetaJoin:
    """Sort-based inequality join: ``scale * key <op> probe`` (§2.2/§4).

    Containers are value-sorted and the numeric codecs order
    preserving, so the scaled ``sort_keys`` of the key containers *are*
    the sorted run, paired with their owning elements (``ascend``
    ``Parent`` gathers up).  A probe is one ``np.searchsorted`` per
    outer value; its slot range's length is the match count, its
    ``owners`` slice the matches.  Not an operator: the evaluator
    probes it once per outer binding or row.  :meth:`build` refuses — before
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
        """No input: the plan views (EXPLAIN, the verifier) see a
        leaf."""
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

    def _run(self) -> dict:
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
        return {self.column: owners[_COMPARE[self.op](
            left[at_left], self.scale * right[at_right])]}


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

    def __init__(self, source: Operator, columns: tuple[str, ...]):
        self._source = source
        self.columns = tuple(columns)

    def _run(self) -> dict:
        columns = self._source.run()
        # lexsort's last key is the most significant; it is stable.
        order = np.lexsort([columns[name] for name in self.columns[::-1]])
        return {name: column[order] for name, column in columns.items()}


# -- decompression ---------------------------------------------------------------

class Decompress(Operator):
    """Replace a compressed column with its decoded string values.

    Values stay compressed through selections and joins; a plan
    decodes only what it must compare across compressed domains — a
    ``MergeJoin``'s keys — exactly once per value (the plan verifier's
    duplicate-Decompress rule).  Results decode at materialization.
    """

    INPUTS = ("_source",)

    def __init__(self, source: Operator, columns: list[str]):
        self._source = source
        self.columns = tuple(columns)

    def _run(self) -> dict:
        stats = STATS.get()
        columns = dict(self._source.run())
        for name in self.columns:
            column = columns.get(name)
            if isinstance(column, Slots):
                values = []
                for container, slots in column.segments:
                    records = container.as_arrays().records
                    values += [container.codec.decode(
                        records[slot].compressed) for slot in slots.tolist()]
                _count("decompressions", len(values))
            elif column is not None and column.dtype == object:
                # A blob container's items, or values already decoded.
                values = [item.decode(stats)
                          if isinstance(item, CompressedItem) else item
                          for item in column]
            else:  # absent, or a node column: nothing to decode
                continue
            columns[name] = np.array(values, dtype=object)
        return columns
