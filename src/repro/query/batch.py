"""``RecordBatch``: the columnar unit of the batch-pull operator API.

DESIGN.md §13.  Physical operators move rows in *batches* of a given
width, where each batch is a small set of named **columns** backed by
numpy arrays:

* :class:`NodeColumn` — element ids as an ``int64`` array;
* :class:`ValueColumn` — container values by *slot index* into one
  value-sorted container (codewords stay in the container — the column
  is just offsets, which is what keeps compressed-domain predicates
  positional);
* :class:`ItemColumn` — arbitrary Python items (the compatibility
  representation produced by :func:`RecordBatch.from_rows`).

A batch is nothing but equal-length columns: ``take``/``slice`` pick
rows, ``with_column``/``merged_with`` add columns.  ``to_rows()``
yields the dict rows the batch stands for — what iterating an operator
returns.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np

#: default number of rows per batch (``Operator.batches``' chunk width).
DEFAULT_BATCH_SIZE = 1024

Row = dict


class NodeColumn:
    """Element ids (one per row) as a dense ``int64`` array."""

    __slots__ = ("ids", "doc")

    def __init__(self, ids: np.ndarray, doc: str | None = None):
        self.ids = np.asarray(ids, dtype=np.int64)
        self.doc = doc

    def __len__(self) -> int:
        return len(self.ids)

    def take(self, indices: np.ndarray) -> "NodeColumn":
        return NodeColumn(self.ids[indices], self.doc)

    def slice(self, start: int, stop: int) -> "NodeColumn":
        return NodeColumn(self.ids[start:stop], self.doc)

    def item_at(self, index: int):
        from repro.query.context import NodeItem
        return NodeItem(int(self.ids[index]), self.doc)

    def to_items(self) -> list:
        from repro.query.context import NodeItem
        doc = self.doc
        return [NodeItem(int(i), doc) for i in self.ids]

    @classmethod
    def concat(cls, columns: Sequence["NodeColumn"]) -> "NodeColumn":
        return cls(np.concatenate([c.ids for c in columns]),
                   columns[0].doc)


class ValueColumn:
    """Container values by slot index into one value-sorted container.

    The codewords never leave the container: the column holds record
    *positions* into the (sorted) container, and materializing a
    :class:`~repro.query.context.CompressedItem` happens only when a
    consumer genuinely needs the row form.
    """

    __slots__ = ("container", "indices", "_records", "_codec",
                 "_value_type")

    def __init__(self, container, indices: np.ndarray):
        records = container.as_arrays().records
        if records is None:
            raise ValueError(
                f"container {container.path!r} is a blob; blob values "
                "have no per-record slots and must flow as ItemColumn")
        self.container = container
        self.indices = np.asarray(indices, dtype=np.int64)
        self._records = records
        self._codec = container.codec
        self._value_type = container.value_type

    def __len__(self) -> int:
        return len(self.indices)

    def take(self, indices: np.ndarray) -> "ValueColumn":
        return ValueColumn(self.container, self.indices[indices])

    def slice(self, start: int, stop: int) -> "ValueColumn":
        return ValueColumn(self.container, self.indices[start:stop])

    def item_at(self, index: int):
        from repro.query.context import CompressedItem
        record = self._records[self.indices[index]]
        return CompressedItem(record.compressed, self._codec,
                              self._value_type)

    def to_items(self) -> list:
        from repro.query.context import CompressedItem
        records, codec = self._records, self._codec
        value_type = self._value_type
        return [CompressedItem(records[i].compressed, codec, value_type)
                for i in self.indices]

    @classmethod
    def concat(cls, columns: Sequence["ValueColumn"]) -> "ValueColumn":
        first = columns[0]
        if any(c.container is not first.container for c in columns[1:]):
            raise ValueError("cannot concat ValueColumns over "
                             "different containers")
        return cls(first.container,
                   np.concatenate([c.indices for c in columns]))


class ItemColumn:
    """Arbitrary Python items, one per row (compatibility column)."""

    __slots__ = ("items",)

    def __init__(self, items: list):
        self.items = items if isinstance(items, list) else list(items)

    def __len__(self) -> int:
        return len(self.items)

    def take(self, indices: np.ndarray) -> "ItemColumn":
        items = self.items
        return ItemColumn([items[int(i)] for i in indices])

    def slice(self, start: int, stop: int) -> "ItemColumn":
        return ItemColumn(self.items[start:stop])

    def item_at(self, index: int):
        return self.items[index]

    def to_items(self) -> list:
        return list(self.items)

    @classmethod
    def concat(cls, columns: Sequence["ItemColumn"]) -> "ItemColumn":
        items: list = []
        for column in columns:
            items.extend(column.to_items())
        return cls(items)


class RecordBatch:
    """A fixed set of equal-length named columns."""

    __slots__ = ("_columns", "_length")

    def __init__(self, columns: dict, length: int | None = None):
        self._columns = columns
        if length is None:
            if not columns:
                raise ValueError("an empty batch needs an explicit "
                                 "length")
            length = len(next(iter(columns.values())))
        for name, column in columns.items():
            if len(column) != length:
                raise ValueError(
                    f"column {name!r} has {len(column)} rows, "
                    f"batch has {length}")
        self._length = length

    # -- shape ---------------------------------------------------------------

    def __len__(self) -> int:
        return self._length

    def column_names(self) -> tuple:
        return tuple(self._columns)

    def column(self, name: str):
        return self._columns[name]

    def columns(self) -> dict:
        """The name -> column mapping (a copy; columns are shared)."""
        return dict(self._columns)

    # -- transforms ----------------------------------------------------------

    def take(self, indices: np.ndarray) -> "RecordBatch":
        """Rows by position."""
        indices = np.asarray(indices, dtype=np.int64)
        return RecordBatch(
            {name: column.take(indices)
             for name, column in self._columns.items()},
            len(indices))

    def slice(self, start: int, stop: int) -> "RecordBatch":
        stop = min(stop, self._length)
        return RecordBatch(
            {name: column.slice(start, stop)
             for name, column in self._columns.items()},
            max(stop - start, 0))

    def with_column(self, name: str, column) -> "RecordBatch":
        """This batch plus (or replacing) one column."""
        merged = dict(self._columns)
        merged[name] = column
        return RecordBatch(merged, self._length)

    def merged_with(self, other: "RecordBatch") -> "RecordBatch":
        """Column-wise merge (``{**left_row, **right_row}`` semantics)."""
        if self._length != other._length:
            raise ValueError("merged batches must have equal lengths")
        merged = dict(self._columns)
        merged.update(other._columns)
        return RecordBatch(merged, self._length)

    @classmethod
    def concat(cls, batches: Sequence["RecordBatch"]) -> "RecordBatch":
        if not batches:
            raise ValueError("concat of no batches")
        names = batches[0].column_names()
        for batch in batches[1:]:
            if batch.column_names() != names:
                raise ValueError("concat of batches with different "
                                 "columns")
        columns = {}
        for name in names:
            parts = [b._columns[name] for b in batches]
            kinds = {type(p) for p in parts}
            if len(kinds) == 1:
                columns[name] = parts[0].concat(parts)
            else:  # mixed representations: fall back to items
                items: list = []
                for part in parts:
                    items.extend(part.to_items())
                columns[name] = ItemColumn(items)
        return cls(columns, sum(b._length for b in batches))

    # -- row compatibility ---------------------------------------------------

    def to_rows(self) -> Iterator[Row]:
        """The dict rows this batch stands for, in order."""
        names = tuple(self._columns)
        columns = tuple(self._columns.values())
        for position in range(self._length):
            yield {name: column.item_at(position)
                   for name, column in zip(names, columns)}

    @classmethod
    def from_rows(cls, rows: Sequence[Row]) -> "RecordBatch":
        """A batch of :class:`ItemColumn` s from uniform dict rows."""
        if not rows:
            raise ValueError("from_rows of no rows")
        names = tuple(rows[0])
        columns = {name: ItemColumn([row[name] for row in rows])
                   for name in names}
        return cls(columns, len(rows))


def batches_from_rows(rows: Iterable[Row],
                      size: int) -> Iterator[RecordBatch]:
    """Chunk a row stream into batches (how per-row operators emit)."""
    chunk: list[Row] = []
    for row in rows:
        chunk.append(row)
        if len(chunk) >= size:
            yield RecordBatch.from_rows(chunk)
            chunk = []
    if chunk:
        yield RecordBatch.from_rows(chunk)


def rows_of_batches(batches: Iterable[RecordBatch]) -> Iterator[Row]:
    """Flatten batches into the row stream iteration yields."""
    for batch in batches:
        yield from batch.to_rows()
