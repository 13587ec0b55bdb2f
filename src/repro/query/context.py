"""The query data model: items, atomization, compressed comparison.

Items flowing through the engine are:

* :class:`NodeItem` — an element node of the compressed repository;
* :class:`CompressedItem` — a text or attribute value still in its
  compressed form (the whole point: predicates evaluate on these
  without decompressing);
* plain Python ``str``/``float``/``bool`` — computed atomics;
* :class:`repro.xmlio.dom.Element` — constructed results.

:class:`EvaluationStats` counts decompressions and operator activity;
the compressed-domain comparison helpers charge it only when they must
leave the compressed domain.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compression.base import Codec, CompressedValue
from repro.errors import QueryTypeError
from repro.xmlio.dom import Element


class EvaluationStats:
    """The eight counters of one query run, as plain integers.

    ``stats.decompressions += 1`` is a slot store.  Exposed as
    :attr:`repro.query.engine.QueryResult.stats`; a traced run's
    :class:`~repro.obs.telemetry.Telemetry` holds the same object.
    """

    FIELDS = ("decompressions", "compressed_comparisons",
              "decompressed_comparisons", "container_scans",
              "container_accesses", "summary_accesses", "hash_joins",
              "nodes_visited")

    __slots__ = FIELDS

    def __init__(self, **initial: int):
        for name in self.FIELDS:
            setattr(self, name, initial.pop(name, 0))
        if initial:
            raise TypeError(f"unknown counter {next(iter(initial))!r}")

    def as_dict(self) -> dict[str, int]:
        """All counters by name."""
        return {name: getattr(self, name) for name in self.FIELDS}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EvaluationStats):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)}"
                          for name in self.FIELDS)
        return f"EvaluationStats({inner})"


@dataclass(frozen=True, slots=True)
class NodeItem:
    """An element node, by id, within one repository.

    ``doc`` names the document for engines evaluating over a
    collection (``document("name")/...``); ``None`` is the default
    document.
    """

    node_id: int
    doc: str | None = None


class CompressedItem:
    """A container value, compared in the compressed domain when legal."""

    __slots__ = ("compressed", "codec", "value_type", "_decoded")

    def __init__(self, compressed: CompressedValue, codec: Codec,
                 value_type: str = "string"):
        self.compressed = compressed
        self.codec = codec
        self.value_type = value_type
        self._decoded: str | None = None

    def decode(self, stats: EvaluationStats | None = None) -> str:
        """Decompress (memoised); charges ``stats.decompressions``."""
        if self._decoded is None:
            if stats is not None:
                stats.decompressions += 1
            self._decoded = self.codec.decode(self.compressed)
        return self._decoded

    def __repr__(self) -> str:
        return f"<CompressedItem bits={self.compressed.bits}>"


def compare_items(op: str, left, right, stats: EvaluationStats) -> bool:
    """Compare two atomic items, staying compressed when possible.

    The compressed fast paths mirror §2.1: equality under any shared
    source model with ``eq``; inequality only under an order-preserving
    codec (``ineq``).  Everything else decompresses (and is charged).
    """
    if isinstance(left, CompressedItem) and \
            isinstance(right, CompressedItem) and \
            left.codec is right.codec:
        properties = left.codec.properties
        if op in ("=", "!=") and properties.eq:
            stats.compressed_comparisons += 1
            equal = left.compressed == right.compressed
            return equal if op == "=" else not equal
        if op in ("<", "<=", ">", ">=") and properties.ineq \
                and left.value_type == "string" \
                and right.value_type == "string":
            # Numeric containers are ordered numerically, but two
            # untyped text nodes compare as *strings* in the reference
            # semantics ("10" < "9"); only string containers may answer
            # inequalities on their compressed order.
            stats.compressed_comparisons += 1
            return _ordered(op, left.compressed, right.compressed)
    if isinstance(left, CompressedItem) and \
            isinstance(right, (str, float, int)) and \
            not isinstance(right, bool):
        swapped = _compare_compressed_constant(op, left, right, stats)
        if swapped is not None:
            return swapped
    if isinstance(right, CompressedItem) and \
            isinstance(left, (str, float, int)) and \
            not isinstance(left, bool):
        flipped = _compare_compressed_constant(
            _flip(op), right, left, stats)
        if flipped is not None:
            return flipped
    return _compare_decoded(op, left, right, stats)


def _compare_compressed_constant(op: str, item: CompressedItem,
                                 constant, stats: EvaluationStats
                                 ) -> bool | None:
    """``item <op> constant`` without decompressing, or ``None``.

    The constant is compressed with the item's source model — the
    direction XQueC always prefers: one encode beats N decodes.
    """
    properties = item.codec.properties
    if isinstance(constant, (int, float)) and item.value_type == "string":
        # Numeric comparison of untyped text: must decode.
        return None
    text = _constant_text(constant, item.value_type)
    if text is None:
        return None
    if op in ("=", "!=") and properties.eq:
        encoded = item.codec.try_encode(text)
        stats.compressed_comparisons += 1
        if encoded is None:
            # Out-of-model constants can never equal a container value.
            return op == "!="
        equal = item.compressed == encoded
        return equal if op == "=" else not equal
    if op in ("<", "<=", ">", ">=") and properties.ineq:
        if isinstance(constant, str) and item.value_type != "string":
            # A string constant orders *lexicographically* against
            # untyped text ("10" < "9" is true); a numeric container's
            # compressed order cannot answer that — decode instead.
            return None
        encoded = item.codec.try_encode(text)
        if encoded is None:
            return None
        stats.compressed_comparisons += 1
        return _ordered(op, item.compressed, encoded)
    return None


def _constant_text(constant, value_type: str) -> str | None:
    """Render a constant into the container's canonical text form."""
    if isinstance(constant, str):
        return constant
    if value_type == "int":
        if float(constant).is_integer():
            return str(int(constant))
        return None  # e.g. 10.5 against an int container
    if value_type == "float":
        value = float(constant)
        if value == 0.0:
            value = 0.0  # normalise -0.0: it compares equal to 0.0
        return repr(value)
    return str(constant)


def _ordered(op: str, a, b) -> bool:
    if op == "<":
        return a < b
    if op == "<=":
        return not b < a
    if op == ">":
        return b < a
    return not a < b  # >=


def _flip(op: str) -> str:
    return {"=": "=", "!=": "!=", "<": ">", "<=": ">=",
            ">": "<", ">=": "<="}[op]


def _compare_decoded(op: str, left, right,
                     stats: EvaluationStats) -> bool:
    stats.decompressed_comparisons += 1
    lv = _to_python(left, stats)
    rv = _to_python(right, stats)
    if isinstance(lv, float) or isinstance(rv, float):
        try:
            lv = float(lv)
            rv = float(rv)
        except (TypeError, ValueError):
            return op == "!="
    if op == "=":
        return lv == rv
    if op == "!=":
        return lv != rv
    try:
        return _ordered(op, lv, rv)
    except TypeError as exc:
        raise QueryTypeError(f"cannot order {lv!r} and {rv!r}") from exc


def _to_python(item, stats: EvaluationStats):
    # A decoded container value is *untyped text*, whatever the
    # container's storage type: it becomes numeric only when compared
    # against an actual number (the float branch above), exactly like
    # the decompress-first reference.  Coercing by value_type here made
    # "$a/age < $b/name" numeric on one side and broke string order.
    if isinstance(item, CompressedItem):
        return item.decode(stats)
    return item


def string_value(item, stats: EvaluationStats) -> str:
    """String value of an atomic item (decodes if compressed)."""
    if isinstance(item, CompressedItem):
        return item.decode(stats)
    if isinstance(item, bool):
        return "true" if item else "false"
    if isinstance(item, float):
        return _format_number(item)
    if isinstance(item, Element):
        return item.text()
    if isinstance(item, str):
        return item
    raise QueryTypeError(f"no string value for {item!r}")


def number_value(item, stats: EvaluationStats) -> float:
    """Numeric value of an atomic item.

    Raises :class:`QueryTypeError` (never a bare ``ValueError``) when
    the item's text does not parse as a number.
    """
    try:
        if isinstance(item, CompressedItem):
            return float(item.decode(stats))
        if isinstance(item, bool):
            return 1.0 if item else 0.0
        if isinstance(item, (int, float)):
            return float(item)
        if isinstance(item, str):
            return float(item)
        if isinstance(item, Element):
            return float(item.text())
    except ValueError as exc:
        raise QueryTypeError(f"cannot convert to a number: {exc}") \
            from exc
    raise QueryTypeError(f"no numeric value for {item!r}")


def _format_number(value: float) -> str:
    if value != value:
        return "NaN"
    if value == float("inf"):
        return "INF"
    if value == float("-inf"):
        return "-INF"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def effective_boolean(sequence: list) -> bool:
    """XPath effective boolean value of a sequence."""
    if not sequence:
        return False
    first = sequence[0]
    if isinstance(first, (NodeItem, CompressedItem, Element)):
        return True
    if len(sequence) > 1:
        raise QueryTypeError(
            "effective boolean value of a multi-item atomic sequence")
    if isinstance(first, bool):
        return first
    if isinstance(first, float):
        return first != 0.0
    if isinstance(first, str):
        return bool(first)
    return True
