"""Codec framework: compressed values, algorithm properties, base class.

The paper characterizes each compression algorithm as a tuple
``<d_c, c_s(F), c_a(F), eq, ineq, wild>`` (§3.2):

* ``d_c`` — estimated cost of decompressing one container record;
* ``c_s(F)`` — estimated storage cost of one compressed record;
* ``c_a(F)`` — estimated storage cost of the source-model structures;
* ``eq``/``ineq``/``wild`` — whether equality, inequality, and
  prefix-match predicates can be evaluated in the compressed domain.

:class:`CompressedValue` is the unit the query engine manipulates: a bit
string packed into zero-padded bytes.  For *alphabetical* (order-preserving
prefix-free) codes, comparing ``(data, bits)`` tuples lexicographically is
exactly the source-string order, including the prefix case — see the
ordering argument in :mod:`repro.util.bits`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import total_ordering

from repro.errors import CodecDomainError


@total_ordering
@dataclass(frozen=True, slots=True)
class CompressedValue:
    """An individually compressed container value.

    ``data`` holds the code bits packed MSB-first and zero-padded to a
    byte boundary; ``bits`` is the exact bit length.
    """

    data: bytes
    bits: int

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CompressedValue):
            return NotImplemented
        return self.data == other.data and self.bits == other.bits

    def __lt__(self, other: "CompressedValue") -> bool:
        # Zero padding makes byte order equal bit-string order; the bit
        # length breaks ties so that a bit-prefix sorts first.
        if self.data != other.data:
            return self.data < other.data
        return self.bits < other.bits

    def __hash__(self) -> int:
        return hash((self.data, self.bits))

    def starts_with(self, prefix: "CompressedValue") -> bool:
        """True when ``prefix``'s bits are a bit-prefix of this value."""
        if prefix.bits > self.bits:
            return False
        full_bytes, extra_bits = divmod(prefix.bits, 8)
        if self.data[:full_bytes] != prefix.data[:full_bytes]:
            return False
        if extra_bits == 0:
            return True
        mask = (0xFF << (8 - extra_bits)) & 0xFF
        return (self.data[full_bytes] & mask) == \
               (prefix.data[full_bytes] & mask)

    @property
    def nbytes(self) -> int:
        """Size of the packed payload in bytes."""
        return len(self.data)


#: the predicate kinds of the paper's capability tuple, in order.
PREDICATE_KINDS = ("eq", "ineq", "wild")


@dataclass(frozen=True, slots=True)
class CompressionProperties:
    """The paper's algorithmic-property booleans (§3.2).

    ``ineq`` doubles as the *order-preserving* flag: a codec can answer
    inequalities in the compressed domain exactly when compressed-value
    order equals source-value order (ALM, Hu-Tucker, the numeric
    codecs), which is also what merge joins and compressed-domain
    binary search require.
    """

    eq: bool
    ineq: bool
    wild: bool

    def supports(self, predicate_kind: str) -> bool:
        """Look up support by predicate kind: 'eq', 'ineq' or 'wild'.

        Raises :class:`ValueError` on any other kind — a silent
        ``False``/``None`` here would let the optimizer and the plan
        verifier disagree about a capability that does not exist.
        """
        if predicate_kind not in PREDICATE_KINDS:
            raise ValueError(
                f"unknown predicate kind {predicate_kind!r}; "
                f"expected one of {', '.join(PREDICATE_KINDS)}")
        return bool(getattr(self, predicate_kind))

    @property
    def order_preserving(self) -> bool:
        """Compressed order == value order (the ``ineq`` capability)."""
        return self.ineq

    def count_true(self) -> int:
        """Number of properties holding — the greedy search's tie-break."""
        return int(self.eq) + int(self.ineq) + int(self.wild)


#: historical name, kept so external codecs keep importing.
CodecProperties = CompressionProperties


class Codec(ABC):
    """A value codec trained on a container's (or set's) values.

    Subclasses must be deterministic: encoding the same string twice under
    the same source model yields identical bits (required for compressed-
    domain equality).
    """

    #: registry name, e.g. ``"huffman"`` or ``"alm"``.
    name: str = "abstract"
    #: the paper's eq/ineq/wild booleans.  Concrete codecs must declare
    #: their own (``repro lint-src`` enforces it); this default exists
    #: only so the abstract base is importable.
    properties: CompressionProperties = CompressionProperties(
        False, False, False)
    #: relative per-record decompression cost estimate (``d_c``).
    decompression_cost: float = 1.0

    @classmethod
    @abstractmethod
    def train(cls, values: Iterable[str]) -> "Codec":
        """Build a source model from training values and return a codec."""

    @classmethod
    def train_and_encode(
            cls, values: Iterable[str]
    ) -> "tuple[Codec, list[CompressedValue] | None]":
        """Train on ``values`` and compress each of them, in order.

        What the loader calls per container: a codec whose training
        already segments the values (ALM) encodes from that one pass.
        Equal values share one :class:`CompressedValue`.  ``None`` in
        place of the list: the codec stores no per-value form (blobs).
        """
        values = list(values)
        codec = cls.train(values)
        encoded = {value: codec.encode(value) for value in set(values)}
        return codec, [encoded[value] for value in values]

    @abstractmethod
    def encode(self, value: str) -> CompressedValue:
        """Compress one value; raises CodecDomainError when out of domain."""

    @abstractmethod
    def decode(self, compressed: CompressedValue) -> str:
        """Decompress one value; raises CorruptDataError on bad bits."""

    @abstractmethod
    def model_size_bytes(self) -> int:
        """Approximate serialized size of the source model (``c_a``)."""

    def try_encode(self, value: str) -> CompressedValue | None:
        """Encode, returning ``None`` when the value is out of domain.

        Query constants may contain characters the container's source
        model never saw; the engine then falls back to decompression
        (or, for equality, concludes no match is possible).
        """
        try:
            return self.encode(value)
        except CodecDomainError:
            return None

    def encoded_size_bytes(self, values: Sequence[str]) -> int:
        """Total packed size of ``values`` under this codec (``c_s``)."""
        return sum(self.encode(v).nbytes for v in values)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} properties={self.properties}>"
