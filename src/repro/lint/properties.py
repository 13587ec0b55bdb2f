"""Inferred plan properties the verifier propagates through operators.

A :class:`PlanProperties` describes everything the verifier knows about
the rows an operator emits: which columns exist and in what state
(node reference / compressed value / plain value), which codec and
container a compressed column came from (its *compressed domain*), and
the sort order the stream is known to satisfy.

``open_schema`` marks outputs fed by operators the verifier cannot type
(unknown operator classes): column-existence checks are suppressed
there rather than reporting false positives.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.compression.base import Codec, CompressionProperties

#: column kinds: a node reference, a still-compressed value, or a
#: plain (decoded or computed) value.
NODE = "node"
COMPRESSED = "compressed"
PLAIN = "plain"


@dataclass(frozen=True)
class ColumnInfo:
    """What the verifier knows about one column of a row stream."""

    kind: str
    #: the codec a compressed column was encoded with.
    codec: Codec | None = None
    #: the container the column's values came from.
    container_path: str | None = None
    #: True once a ``Decompress`` has turned the column plain.
    decompressed: bool = False

    @property
    def capabilities(self) -> CompressionProperties | None:
        """The §3.2 capability tuple of the column's codec, if any."""
        return self.codec.properties if self.codec is not None else None

    def domain_key(self) -> object:
        """Identity of the compressed domain (shared source model).

        Two compressed columns are comparable in the compressed domain
        exactly when their values were encoded by the same source
        model; codec object identity captures the paper's container
        grouping (grouped containers share one trained codec).
        """
        return id(self.codec)

    def decompress(self) -> "ColumnInfo":
        """The column after an explicit ``Decompress``."""
        return replace(self, kind=PLAIN, decompressed=True)


@dataclass(frozen=True)
class PlanProperties:
    """Columns, sort order and schema openness of one row stream."""

    columns: dict[str, ColumnInfo] = field(default_factory=dict)
    #: column names the stream is sorted by, most significant first;
    #: empty when no order is established.
    order: tuple[str, ...] = ()
    #: True when upstream columns are unknown (untyped input).
    open_schema: bool = False

    def has_column(self, name: str) -> bool:
        return name in self.columns

    def column(self, name: str) -> ColumnInfo | None:
        return self.columns.get(name)

    def with_column(self, name: str, info: ColumnInfo,
                    order: tuple[str, ...] | None = None
                    ) -> "PlanProperties":
        """A copy with one column added/replaced (order defaults to
        this stream's order)."""
        columns = dict(self.columns)
        columns[name] = info
        return PlanProperties(columns,
                              self.order if order is None else order,
                              self.open_schema)

    def ordered_on(self, name: str) -> bool:
        """True when the stream's primary sort key is ``name``."""
        return bool(self.order) and self.order[0] == name

    @staticmethod
    def opaque() -> "PlanProperties":
        """Properties of a stream the verifier cannot type."""
        return PlanProperties({}, (), True)

    @staticmethod
    def merge(left: "PlanProperties", right: "PlanProperties",
              order: tuple[str, ...] | None = None) -> "PlanProperties":
        """Join output schema: left's columns updated by right's.

        Mirrors the operators' ``{**left, **right}`` column merge; the
        output order defaults to the left input's.
        """
        columns = dict(left.columns)
        columns.update(right.columns)
        return PlanProperties(
            columns, left.order if order is None else order,
            left.open_schema or right.open_schema)
