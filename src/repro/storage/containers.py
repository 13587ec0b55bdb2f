"""Value containers: per-path, individually compressed value storage.

All data values found under the same root-to-leaf path expression are
stored together (§2.2).  A container is a sequence of *container
records* — (compressed value, parent pointer) — kept in **lexicographic
value order**, not document order, so interval search is a binary
search; this is what makes the ``ContAccess`` access path cheap.

Unlike XMill, every value is compressed on its own and individually
accessible.  For order-preserving codecs the records can be compared —
and binary-searched — directly on their compressed form; for
order-agnostic codecs (Huffman) the records are still value-sorted, and
interval probes decompress O(log n) pivot records instead.

A container whose codec ``is_blob`` degrades to the XMill behaviour:
one compressed chunk, any record access decompresses the whole chunk
(the trade-off the §3 cost model weighs).
"""

from __future__ import annotations

import bisect
import sys
from collections.abc import Iterator

import numpy as np

from repro.compression.base import Codec, CompressedValue
from repro.compression.blob import BlobCodec
from repro.errors import StorageError

#: q of the substring index: the shortest needle it can answer.
SUBSTRING_Q = 3

#: bits per code point in a packed q-gram.
_POINT_BITS = 21


def _code_points(text: str) -> np.ndarray:
    """The code points of ``text``, one ``uint64`` each."""
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"),
                         dtype="<u4").astype(np.uint64)


def _qgrams(points: np.ndarray) -> np.ndarray:
    """The q-grams of a code point array at every position, each as one
    integer (21 bits per code point), in text order."""
    count = max(len(points) - SUBSTRING_Q + 1, 0)
    grams = np.zeros(count, dtype=np.uint64)
    for offset in range(SUBSTRING_Q):
        grams = grams << np.uint64(_POINT_BITS) \
            | points[offset:offset + count]
    return grams


def _compact(array: np.ndarray, top: int) -> np.ndarray:
    """``array`` (values in ``[0, top]``) in the smallest dtype."""
    return array.astype(np.min_scalar_type(max(top, 0)))


def _common(keys: np.ndarray, others: np.ndarray) -> np.ndarray:
    """The sorted ``keys`` also in the sorted ``others``."""
    if not len(others):
        return others
    at = np.minimum(np.searchsorted(others, keys), len(others) - 1)
    return keys[others[at] == keys]


class SubstringIndex:
    """Positional q-gram postings over one container's values as
    stored: for the i-th of the distinct q-grams ``grams`` (sorted),
    ``slots[runs[i]:runs[i + 1]]`` and ``places[...]`` are every
    (slot, offset in the value) it occurs at, sorted, each array in
    the smallest dtype that fits.  No q-gram spans two values.

    :meth:`slots_of` decides ``needle in value`` exactly from the
    postings; :meth:`candidates` answers any letter case, a superset,
    from the same postings: ``folded`` holds each distinct q-gram's
    per-character ``str.casefold`` (sorted; ``by_fold`` maps back),
    and ``odd_grams`` / ``odd_slots`` the folded q-grams of the few
    values holding a character that folds to several (``ß`` → ``ss``).
    """

    __slots__ = ("grams", "runs", "slots", "places", "folded", "by_fold",
                 "odd_grams", "odd_slots")

    def __init__(self, values: list[str]):
        lengths = np.fromiter(map(len, values), dtype=np.int64,
                              count=len(values))
        points = _code_points("".join(values))
        grams = _qgrams(points)
        slot_of = np.repeat(np.arange(len(values)), lengths)
        places = np.arange(len(points)) \
            - np.repeat(np.cumsum(lengths) - lengths, lengths)
        slots, places = slot_of[:len(grams)], places[:len(grams)]
        inside = places + SUBSTRING_Q <= lengths[slots]
        grams, slots, places = grams[inside], slots[inside], places[inside]
        # Stable: each q-gram's occurrences stay in text order, which
        # is (slot, offset) order.
        order = np.argsort(grams, kind="stable")
        grams = grams[order]
        fresh = np.ones(len(grams), dtype=bool)
        fresh[1:] = grams[1:] != grams[:-1]
        self.grams = grams[fresh]
        self.runs = _compact(np.append(np.flatnonzero(fresh), len(grams)),
                             len(grams))
        self.slots = _compact(slots[order], len(values))
        self.places = _compact(places[order], int(lengths.max(initial=0)))
        # Case folding, one character at a time: a character folding
        # to several stays itself, which no folded needle holds.
        alphabet = np.unique(points)
        folds = [chr(point).casefold() for point in alphabet.tolist()]
        single = np.array([len(fold) == 1 for fold in folds], dtype=bool)
        folded_points = np.where(single, np.array(
            [ord(fold[0]) for fold in folds], dtype=np.uint64), alphabet)
        mask = np.uint64((1 << _POINT_BITS) - 1)
        keys = np.zeros(len(self.grams), dtype=np.uint64)
        for offset in range(SUBSTRING_Q - 1, -1, -1):
            field = self.grams >> np.uint64(_POINT_BITS * offset) & mask
            keys = keys << np.uint64(_POINT_BITS) | folded_points[
                np.searchsorted(alphabet, field)]
        self.by_fold = _compact(np.argsort(keys, kind="stable"),
                                len(keys))
        self.folded = keys[self.by_fold]
        odd = np.unique(slot_of[np.isin(points, alphabet[~single])])
        pairs = [(gram, slot) for slot in odd.tolist() for gram in
                 np.unique(_qgrams(_code_points(values[slot].casefold())))
                 .tolist()]
        pairs.sort()
        self.odd_grams = np.array([g for g, _ in pairs], dtype=np.uint64)
        self.odd_slots = np.array([s for _, s in pairs], dtype=np.int64)

    @property
    def nbytes(self) -> int:
        return sum(getattr(self, name).nbytes for name in self.__slots__)

    def _run(self, index: int) -> slice:
        return slice(int(self.runs[index]), int(self.runs[index + 1]))

    def slots_of(self, needle: str) -> np.ndarray:
        """Sorted slots of the values containing ``needle`` (at least
        q characters), exactly: a start ``(slot, offset)`` of the
        rarest of a cover of the needle's q-grams, kept where each
        other q-gram of the cover occurs ``i`` places further."""
        grams = _qgrams(_code_points(needle))
        at = np.searchsorted(self.grams, grams)
        if (at == len(self.grams)).any() or \
                (self.grams[np.minimum(at, len(self.grams) - 1)]
                 != grams).any():
            return np.empty(0, dtype=np.int64)
        last = len(grams) - 1
        sizes = self.runs[at + 1] - self.runs[at]
        cover = sorted({*range(0, last, SUBSTRING_Q), last},
                       key=sizes.__getitem__)
        starts = self._starts(at[cover[0]], cover[0])
        for i in cover[1:]:
            starts = _common(starts, self._starts(at[i], i))
        return np.unique(starts >> np.int64(32))

    def _starts(self, index: int, shift: int) -> np.ndarray:
        """``slot << 32 | offset - shift`` of every occurrence of the
        ``index``-th q-gram with ``offset >= shift``: sorted."""
        run = self._run(index)
        places = self.places[run].astype(np.int64) - shift
        keep = places >= 0
        return self.slots[run][keep].astype(np.int64) << np.int64(32) \
            | places[keep]

    def candidates(self, needle: str) -> np.ndarray:
        """Sorted slots of every value whose ``str.casefold`` holds
        all the q-grams of the needle's (at least q characters)."""
        found = None
        for gram in np.unique(_qgrams(_code_points(needle.casefold()))):
            lo, hi = np.searchsorted(self.folded, [gram, gram + 1])
            first, last = np.searchsorted(self.odd_grams, [gram, gram + 1])
            slots = np.unique(np.concatenate(
                [self.slots[self._run(i)] for i in self.by_fold[lo:hi]]
                + [self.odd_slots[first:last]]))
            found = slots if found is None else \
                np.intersect1d(found, slots, assume_unique=True)
            if not len(found):
                break
        return found.astype(np.int64)


class ContainerArrays:
    """Array-shaped view of a sealed container (the operators' input).

    ``parent_ids``
        int64 array of parent pointers, in value order (slot *i* of
        the container maps to ``parent_ids[i]``).
    ``records``
        The container's record list (shared, not copied), or ``None``
        for blob containers, which have no per-record compressed form.
    ``sort_keys``
        Lazily decoded numeric keys (int64/float64) when the codec has
        a vectorized kernel; ``None`` otherwise — see
        :mod:`repro.compression.kernels`.
    ``owners(hops, parents)`` / ``by_owner(hops, parents)``
        Each slot's element ``hops`` ``Parent`` steps above its parent,
        and the records grouped by that owner in document order —
        memoised per ``hops``, what a projected path reads.
    """

    __slots__ = ("parent_ids", "records", "_codec", "_sort_keys",
                 "_owners", "_by_owner", "_one_per_parent")

    def __init__(self, parent_ids: np.ndarray, records, codec):
        self.parent_ids = parent_ids
        self.records = records
        self._codec = codec
        self._sort_keys = False  # not yet computed (None is a result)
        self._owners: dict[int, np.ndarray] = {}
        self._by_owner: dict[int, dict[int, list]] = {}
        self._one_per_parent: bool | None = None

    @property
    def count(self) -> int:
        return len(self.parent_ids)

    @property
    def one_per_parent(self) -> bool:
        """No element owns two of the container's values.  Always so
        for an attribute; a text container breaks it where an element
        has mixed content — and its slot order then says nothing about
        the document order of one element's texts."""
        if self._one_per_parent is None:
            self._one_per_parent = \
                len(np.unique(self.parent_ids)) == self.count
        return self._one_per_parent

    def owners(self, hops: int, parents: np.ndarray) -> np.ndarray:
        """The element ``hops`` parent steps above each slot's parent
        (``parents``: the structure's parent array; ``-1`` past the
        root), by slot."""
        owners = self._owners.get(hops)
        if owners is None:
            owners = self.parent_ids
            for _ in range(hops):
                owners = np.where(owners >= 0, parents[owners], -1)
            self._owners[hops] = owners
        return owners

    def by_owner(self, hops: int, parents: np.ndarray) -> dict[int, list]:
        """The records by :meth:`owners` element, each list in the
        document order of the records' parents."""
        groups = self._by_owner.get(hops)
        if groups is None:
            owners = self.owners(hops, parents)
            order = np.lexsort((self.parent_ids, owners))
            groups = {}
            for owner, slot in zip(owners[order].tolist(), order.tolist()):
                groups.setdefault(owner, []).append(self.records[slot])
            self._by_owner[hops] = groups
        return groups

    @property
    def sort_keys(self) -> np.ndarray | None:
        if self._sort_keys is False:
            from repro.compression.kernels import kernel_for
            kernel = None if self.records is None \
                else kernel_for(self._codec)
            self._sort_keys = None if kernel is None \
                else kernel.decode_keys(self.records)
        return self._sort_keys

    @property
    def nbytes(self) -> int:
        """Array bytes this view pins (block-cache budget accounting)."""
        total = self.parent_ids.nbytes + sum(
            owners.nbytes for hops, owners in self._owners.items() if hops)
        if self._sort_keys is not False and self._sort_keys is not None:
            total += self._sort_keys.nbytes
        # A group is a dict slot and a one-record list per owner.
        return total + sum(sys.getsizeof(groups) + 64 * len(groups)
                           for groups in self._by_owner.values())


class ContainerRecord:
    """One (compressed value, parent node id) record."""

    __slots__ = ("compressed", "parent_id")

    def __init__(self, compressed: CompressedValue, parent_id: int):
        self.compressed = compressed
        self.parent_id = parent_id

    def __repr__(self) -> str:
        return (f"ContainerRecord(bits={self.compressed.bits}, "
                f"parent={self.parent_id})")


class ValueContainer:
    """A sealed, sorted container of individually compressed values."""

    def __init__(self, path: str, value_type: str = "string"):
        """``path`` is the root-to-leaf path expression; ``value_type``
        the inferred elementary type (``string``/``int``/``float``)."""
        self.path = path
        self.value_type = value_type
        self._pending: list[str] = []  # staged values, document order
        self._pending_parents: list[int] = []
        self._codec: Codec | None = None
        self._records: list[ContainerRecord] = []
        self._blob: bytes | None = None
        self._blob_values: list[str] | None = None
        self._blob_parents: list[int] | None = None
        self._insertion_to_sorted = np.empty(0, dtype=np.int64)
        self._count = 0
        self._sealed = False
        self._arrays: ContainerArrays | None = None
        #: lazily built by :meth:`substring_index`.
        self._substring_index: SubstringIndex | None = None
        self._compressed_keys: list[CompressedValue] | None = None

    def _compare_key(self, value: str):
        """Comparison key honouring the container's elementary type."""
        if self.value_type == "int":
            return int(value)
        if self.value_type == "float":
            return float(value)
        return value

    def _bound_key(self, bound: str):
        """Comparison key for a query-supplied interval *bound*.

        Stored values always parse under the container's elementary
        type (the loader infers ``int``/``float`` only when every value
        round-trips), but bounds arrive from query constants and need
        not: an ``int`` container is legitimately probed with ``"9.5"``
        (``age < 9.5``).  Numeric containers therefore fall back to a
        ``float`` key for non-integer bounds — Python compares ``int``
        and ``float`` keys exactly, so mixing them in one bisect is
        sound.  A bound that does not parse as a number at all violates
        the :meth:`interval_search` contract and raises
        :class:`~repro.errors.StorageError`.
        """
        if self.value_type == "int":
            try:
                return int(bound)
            except ValueError:
                pass
        if self.value_type in ("int", "float"):
            try:
                return float(bound)
            except ValueError:
                raise StorageError(
                    f"container {self.path!r} has {self.value_type} "
                    f"values; interval bound {bound!r} is not numeric"
                ) from None
        return bound

    # -- loading phase ------------------------------------------------------

    def add_value(self, value: str, parent_id: int) -> int:
        """Stage a raw value during document loading; returns its
        staging index (what :meth:`sorted_position` later maps)."""
        self.stage([value], [parent_id])
        return len(self._pending) - 1

    def stage(self, values: list[str], parent_ids: list[int]) -> None:
        """Stage a run of raw values with their parents at once."""
        if self._sealed:
            raise StorageError(f"container {self.path!r} already sealed")
        self._pending += values
        self._pending_parents += parent_ids

    @property
    def pending_values(self) -> list[str]:
        """Raw staged values (training input for the codec choice)."""
        return list(self._pending)

    def seal(self, codec: Codec,
             encoded: list[CompressedValue] | None = None) -> None:
        """Sort records lexicographically, compress, and freeze.

        Loading stages values in document order, but the sealed container
        is value-ordered; :meth:`sorted_position` maps a staging index to
        the record's final slot so structure-tree value pointers can be
        fixed up.  ``encoded`` hands over the staged values already
        compressed under ``codec``, in staging order (what
        ``train_and_encode`` returns); without it they are encoded here.
        """
        if self._sealed:
            raise StorageError(f"container {self.path!r} already sealed")
        self._codec = codec
        values, parents = self._pending, self._pending_parents
        order = sorted(range(len(values)),
                       key=list(map(self._compare_key, values)).__getitem__)
        self._insertion_to_sorted = np.empty(len(order), dtype=np.int64)
        self._insertion_to_sorted[order] = np.arange(len(order))
        if isinstance(codec, BlobCodec):
            self._blob_values = [values[i] for i in order]
            self._blob = codec.encode_many(self._blob_values)
            self._blob_parents = [parents[i] for i in order]
        else:
            if encoded is None:
                encoded = [codec.encode(value) for value in values]
            self._records = [ContainerRecord(encoded[i], parents[i])
                             for i in order]
        self._count = len(order)
        self._pending = []
        self._pending_parents = []
        self._sealed = True

    def sorted_position(self, insertion_index):
        """Final slot of the value staged ``insertion_index``-th; an
        int64 array of slots for an array of indexes."""
        self._require_sealed()
        return self._insertion_to_sorted[insertion_index]

    @classmethod
    def from_records(cls, path: str, value_type: str, codec: Codec,
                     records: list[ContainerRecord]) -> "ValueContainer":
        """Rehydrate a sealed record container (deserialization)."""
        container = cls(path, value_type)
        container._codec = codec
        container._records = records
        container._count = len(records)
        container._sealed = True
        return container

    @classmethod
    def from_blob(cls, path: str, value_type: str, codec: Codec,
                  blob: bytes, values: list[str],
                  parents: list[int]) -> "ValueContainer":
        """Rehydrate a sealed blob container (deserialization)."""
        container = cls(path, value_type)
        container._codec = codec
        container._blob = blob
        container._blob_values = values
        container._blob_parents = parents
        container._count = len(values)
        container._sealed = True
        return container

    # -- access phase --------------------------------------------------------

    def _require_sealed(self) -> None:
        if not self._sealed:
            raise StorageError(f"container {self.path!r} not sealed yet")

    @property
    def codec(self) -> Codec:
        """The codec this container was sealed with."""
        self._require_sealed()
        assert self._codec is not None
        return self._codec

    @property
    def is_blob(self) -> bool:
        """True when the container stores one XMill-style chunk."""
        self._require_sealed()
        return self._blob is not None

    def __len__(self) -> int:
        self._require_sealed()
        return self._count

    def scan(self) -> Iterator[tuple[int, CompressedValue]]:
        """``ContScan``: all (parent id, compressed value) pairs.

        For blob containers this decompresses the whole chunk (counted
        by the caller as a full decompression) and re-encodes values
        standalone so downstream operators see a uniform record shape.
        """
        self._require_sealed()
        if self._blob is not None:
            assert self._blob_values is not None
            assert self._blob_parents is not None
            assert self._codec is not None
            for value, parent in zip(self._blob_values,
                                     self._blob_parents):
                yield parent, self._codec.encode(value)
            return
        for record in self._records:
            yield record.parent_id, record.compressed

    def scan_decoded(self) -> Iterator[tuple[int, str]]:
        """All (parent id, plain value) pairs, decompressing."""
        self._require_sealed()
        if self._blob is not None:
            assert self._blob_values is not None
            assert self._blob_parents is not None
            yield from zip(self._blob_parents, self._blob_values)
            return
        assert self._codec is not None
        for record in self._records:
            yield record.parent_id, self._codec.decode(record.compressed)

    def record_at(self, index: int) -> ContainerRecord:
        """Record by position (value pointers from the structure tree)."""
        self._require_sealed()
        if self._blob is not None:
            assert self._blob_values is not None
            assert self._blob_parents is not None
            assert self._codec is not None
            return ContainerRecord(
                self._codec.encode(self._blob_values[index]),
                self._blob_parents[index])
        return self._records[index]

    def value_at(self, index: int) -> str:
        """Plain value by position."""
        self._require_sealed()
        if self._blob is not None:
            assert self._blob_values is not None
            return self._blob_values[index]
        assert self._codec is not None
        return self._codec.decode(self._records[index].compressed)

    def as_arrays(self) -> ContainerArrays:
        """Cached array view of the sealed records (DESIGN.md §13).

        Built once per container (records are frozen at seal time).
        """
        self._require_sealed()
        if self._arrays is None:
            if self._blob is not None:
                assert self._blob_parents is not None
                parents = np.array(self._blob_parents, dtype=np.int64)
                self._arrays = ContainerArrays(parents, None, self._codec)
            else:
                parents = np.fromiter(
                    (r.parent_id for r in self._records),
                    dtype=np.int64, count=len(self._records))
                self._arrays = ContainerArrays(parents, self._records,
                                               self._codec)
        return self._arrays

    def drop_arrays(self) -> None:
        """Release the memoized :meth:`as_arrays` view and the
        :meth:`substring_index`.

        Serving-layer cache invalidation calls it, so that a flush
        frees these memos too (``tests/storage/test_array_staleness.py``).
        Safe at any time: records are frozen at seal, so a rebuilt view
        is identical.
        """
        self._arrays = None
        self._substring_index = None

    def substring_indexable(self, needle: str) -> bool:
        """Can :meth:`substring_candidates` answer ``needle``?  Not on
        a blob chunk (no record slots), and not below ``q`` folded
        characters (nothing to look up)."""
        return not self.is_blob and len(needle.casefold()) >= SUBSTRING_Q

    def substring_decidable(self, needle: str) -> bool:
        """Can :meth:`substring_slots` decide ``needle`` exactly?  Not
        on a blob chunk, and not below ``q`` characters."""
        return not self.is_blob and len(needle) >= SUBSTRING_Q

    def substring_index(self) -> SubstringIndex:
        """The container's :class:`SubstringIndex`: built on first use
        from the decoded values and kept beside :meth:`as_arrays`
        (:meth:`drop_arrays` frees both); never stored."""
        if self._substring_index is None:
            self._substring_index = SubstringIndex(
                [value for _, value in self.scan_decoded()])
        return self._substring_index

    def substring_slots(self, needle: str) -> np.ndarray | None:
        """Sorted slots of exactly the values containing ``needle``
        (case-sensitive, as ``contains`` compares), decided on the
        positional q-gram postings without decoding a value — or
        ``None`` where :meth:`substring_decidable` says no."""
        if not self.substring_decidable(needle):
            return None
        return self.substring_index().slots_of(needle)

    def substring_candidates(self, needle: str) -> np.ndarray | None:
        """Sorted slots of the values that may contain ``needle`` —
        every value that does, in any letter case — or ``None`` where
        :meth:`substring_indexable` says no.

        The slots holding all of the needle's q-grams under
        ``str.casefold``.  Folding is per character, so it keeps
        containment: callers (``word-contains``, short needles)
        re-check the candidates they care about.
        """
        if not self.substring_indexable(needle):
            return None
        return self.substring_index().candidates(needle)

    def interval_positions(self, low: str | None, high: str | None,
                           low_inclusive: bool = True,
                           high_inclusive: bool = True
                           ) -> tuple[int, int] | None:
        """Slot range ``[start, end)`` of the interval, or ``None``.

        The positional core of :meth:`interval_search` (same bound
        semantics) and ``ContAccess``'s probe, whose rows are the range's
        slots.  ``None`` means the container is a blob and has no
        positional access path.
        """
        self._require_sealed()
        if self._blob is not None:
            return None
        assert self._codec is not None
        if self._codec.properties.ineq:
            positions = self._positions_compressed(
                low, high, low_inclusive, high_inclusive)
            if positions is not None:
                return positions
        return self._positions_decompressing(
            low, high, low_inclusive, high_inclusive)

    def interval_search(self, low: str | None, high: str | None,
                        low_inclusive: bool = True,
                        high_inclusive: bool = True
                        ) -> Iterator[tuple[int, CompressedValue]]:
        """``ContAccess``: records whose value lies in the interval.

        Contract (the plaintext reference the verify oracle checks
        against):

        * ``low``/``high`` are plain strings (query constants) or
          ``None`` meaning unbounded on that side; ``(None, None)``
          yields every record.  The empty string is an ordinary bound
          (the smallest string), not an "unset" marker.
        * Bounds compare against stored values under the container's
          elementary type: string containers lexicographically, ``int``
          / ``float`` containers numerically.  Numeric containers accept
          any numeric bound text — an ``int`` container probed with
          ``"9.5"`` compares ``value < 9.5`` exactly; a non-numeric
          bound over a numeric container raises
          :class:`~repro.errors.StorageError`.
        * ``low_inclusive``/``high_inclusive`` pick ``<=`` vs ``<`` on
          each side independently; a record equal to an exclusive bound
          is dropped.  Results come back in value order, duplicates
          preserved.

        Order-preserving codecs binary-search on compressed bytes;
        order-agnostic ones binary-search by decompressing the O(log n)
        probe pivots.
        """
        self._require_sealed()
        if self._blob is not None:
            # XMill-style chunk: no random access; filter a full scan.
            key = self._compare_key
            k_low = self._bound_key(low) if low is not None else None
            k_high = self._bound_key(high) if high is not None else None
            for parent, value in self.scan_decoded():
                if _in_interval(key(value), k_low, k_high,
                                low_inclusive, high_inclusive):
                    assert self._codec is not None
                    yield parent, self._codec.encode(value)
            return
        start, end = self.interval_positions(
            low, high, low_inclusive, high_inclusive)
        for record in self._records[start:end]:
            yield record.parent_id, record.compressed

    def _positions_compressed(self, low, high, low_inclusive,
                              high_inclusive):
        """Slot range by bisecting compressed bytes; ``None`` when a
        bound cannot be encoded under the source model (the caller
        falls back to decompressing comparisons)."""
        codec = self._codec
        assert codec is not None
        keys = self._compressed_keys
        if keys is None:
            keys = [r.compressed for r in self._records]
            self._compressed_keys = keys
        start = 0
        if low is not None:
            c_low = codec.try_encode(low)
            if c_low is None:
                return None
            start = (bisect.bisect_left(keys, c_low) if low_inclusive
                     else bisect.bisect_right(keys, c_low))
        end = len(keys)
        if high is not None:
            c_high = codec.try_encode(high)
            if c_high is None:
                return None
            end = (bisect.bisect_right(keys, c_high) if high_inclusive
                   else bisect.bisect_left(keys, c_high))
        return start, end

    def _positions_decompressing(self, low, high, low_inclusive,
                                 high_inclusive):
        codec = self._codec
        assert codec is not None

        key = self._compare_key

        class _Probe:
            """Adapter giving bisect a decompressed view of records."""

            def __init__(self, records):
                self._records = records

            def __len__(self):
                return len(self._records)

            def __getitem__(self, index):
                return key(codec.decode(self._records[index].compressed))

        view = _Probe(self._records)
        start = 0
        if low is not None:
            k_low = self._bound_key(low)
            start = (bisect.bisect_left(view, k_low) if low_inclusive
                     else bisect.bisect_right(view, k_low))
        end = len(self._records)
        if high is not None:
            k_high = self._bound_key(high)
            end = (bisect.bisect_right(view, k_high) if high_inclusive
                   else bisect.bisect_left(view, k_high))
        return start, end

    # -- accounting -----------------------------------------------------------

    def data_size_bytes(self) -> int:
        """Compressed payload bytes (values + varint parent pointers)."""
        from repro.util.varint import varint_size
        self._require_sealed()
        if self._blob is not None:
            assert self._blob_parents is not None
            return len(self._blob) + sum(varint_size(p)
                                         for p in self._blob_parents)
        return sum(r.compressed.nbytes + varint_size(r.parent_id)
                   for r in self._records)

    def model_size_bytes(self) -> int:
        """Size of the codec's source model."""
        self._require_sealed()
        assert self._codec is not None
        return self._codec.model_size_bytes()

    def uncompressed_size_bytes(self) -> int:
        """UTF-8 size of the raw values (for per-container CF)."""
        self._require_sealed()
        return sum(len(v.encode("utf-8"))
                   for _, v in self.scan_decoded())

    def __repr__(self) -> str:
        state = "sealed" if self._sealed else "loading"
        return f"<ValueContainer {self.path!r} {state}>"


def _in_interval(value, low, high,
                 low_inclusive: bool, high_inclusive: bool) -> bool:
    """Interval membership over mutually comparable keys."""
    if low is not None:
        if low_inclusive and value < low:
            return False
        if not low_inclusive and value <= low:
            return False
    if high is not None:
        if high_inclusive and value > high:
            return False
        if not high_inclusive and value >= high:
            return False
    return True
