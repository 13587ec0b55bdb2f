"""Tier A: the static plan verifier.

:func:`verify_plan` walks a physical plan (a tree of
:class:`repro.query.physical.Operator` instances) bottom-up, inferring
:class:`~repro.lint.properties.PlanProperties` for every operator's
output and checking each operator's requirements against its inputs'
inferred properties.  Nothing is executed — the pass reads only the
operators' declarative metadata (column names, predicate kinds,
container/codec handles).

Checked invariants (see :mod:`repro.lint.rules` for the catalog):

* compressed-domain predicates are legal only if the container's codec
  supports the predicate kind per the paper's
  ``<d_c, c_s, c_a, eq, ineq, wild>`` characterization (§3.2);
* ``MergeJoin`` requires inputs with a statically established sort
  order on the key columns (§4);
* ``ThetaJoin`` requires key containers whose slot order is the
  numeric comparison (§2.2);
* compressed comparisons must stay within one compressed domain
  (shared source model, §3.1);
* every value reaching ``XMLSerialize`` passed through ``Decompress``
  exactly once (§4);
* operators only reference columns produced upstream;
* ``ContAccess`` interval search wants a binary-searchable container
  (§2.2);
* ``ContSubstring`` wants a container that can index the needle.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.compression.base import PREDICATE_KINDS
from repro.lint.diagnostics import PlanDiagnostic
from repro.lint.properties import (
    COMPRESSED,
    NODE,
    PLAIN,
    ColumnInfo,
    PlanProperties,
)

#: rule id per unsupported predicate kind.
_CAPABILITY_RULES = {
    "eq": "plan.eq-unsupported",
    "ineq": "plan.ineq-order-agnostic",
    "wild": "plan.wild-unsupported",
}


def verify_plan(root: object) -> list[PlanDiagnostic]:
    """Verify a physical plan; returns every diagnostic found.

    ``root`` is the plan's top operator.  The returned list is ordered
    bottom-up (input diagnostics before the operators consuming them);
    an empty list means the plan satisfies every checked invariant.
    """
    verifier = PlanVerifier()
    verifier.visit(root, type(root).__name__)
    return verifier.diagnostics


class PlanVerifier:
    """Visitor propagating plan properties and collecting diagnostics."""

    def __init__(self) -> None:
        self.diagnostics: list[PlanDiagnostic] = []
        self._handlers: dict[str, Callable[[object, str, list[PlanProperties]], PlanProperties]] = {
            "ContScan": self._container_source,
            "ContAccess": self._cont_access,
            "ContSubstring": self._cont_substring,
            "StructureSummaryAccess": self._summary_access,
            "Child": self._navigation,
            "Parent": self._navigation,
            "Descendant": self._navigation,
            "TextContent": self._content,
            "AttributeContent": self._passthrough,
            "Select": self._select,
            "NodeSet": self._node_set,
            "Concat": self._concat,
            "Project": self._project,
            "HashJoin": self._hash_join,
            "MergeJoin": self._merge_join,
            "ThetaJoin": self._theta_join,
            "NestedLoopJoin": self._nested_loop_join,
            "Distinct": self._distinct,
            "Sort": self._sort,
            "Decompress": self._decompress,
            "XMLSerialize": self._xml_serialize,
        }

    # -- traversal ------------------------------------------------------------

    def visit(self, node: object, path: str) -> PlanProperties:
        """Infer the properties of one plan node's output."""
        inputs = getattr(node, "inputs", None)
        if not callable(inputs):
            # A plain iterable (list, generator): untyped input.
            return PlanProperties.opaque()
        labels = [name.lstrip("_")
                  for name in getattr(node, "INPUTS", ())]
        children = []
        for label, child in zip(labels, inputs()):
            child_name = type(child).__name__
            children.append(
                self.visit(child, f"{path}/{label}={child_name}"))
        handler = self._handlers.get(type(node).__name__)
        if handler is None:
            # Unknown operator: merge what the inputs provide but stop
            # claiming schema completeness.
            merged = PlanProperties.opaque()
            for child_props in children:
                merged = PlanProperties.merge(merged, child_props)
            return PlanProperties(merged.columns, (), True)
        return handler(node, path, children)

    def _report(self, rule_id: str, path: str, message: str,
                hint: str = "") -> None:
        self.diagnostics.append(
            PlanDiagnostic.make(rule_id, path, message, hint))

    def _require_column(self, props: PlanProperties, name: str | None,
                        path: str, role: str) -> ColumnInfo | None:
        """Column lookup with the unknown-column check applied."""
        if name is None:
            return None
        info = props.column(name)
        if info is None and not props.open_schema:
            self._report(
                "plan.unknown-column", path,
                f"{role} column {name!r} is not produced upstream "
                f"(available: {sorted(props.columns) or 'none'})",
                "name an output column of an input operator")
        return info

    # -- data access ----------------------------------------------------------

    def _container_source(self, node: object, path: str,
                          children: list[PlanProperties]
                          ) -> PlanProperties:
        container = node.container  # type: ignore[attr-defined]
        columns = {
            node.id_column: ColumnInfo(NODE),  # type: ignore[attr-defined]
            node.value_column: ColumnInfo(  # type: ignore[attr-defined]
                COMPRESSED, container.codec, container.path),
        }
        # Containers are value-sorted (§2.2): scans and interval
        # accesses emit in value order.
        return PlanProperties(columns,
                              (node.value_column,))  # type: ignore[attr-defined]

    def _cont_access(self, node: object, path: str,
                     children: list[PlanProperties]) -> PlanProperties:
        container = node.container  # type: ignore[attr-defined]
        low, high = node.interval[:2]  # type: ignore[attr-defined]
        if container.is_blob:
            self._report(
                "plan.interval-not-binary-searchable", path,
                f"container {container.path!r} is a blob chunk; the "
                "interval search decompresses the whole container",
                "store the container record-wise or scan it instead")
        elif (low is not None or high is not None) \
                and not container.codec.properties.ineq:
            self._report(
                "plan.interval-decompressing", path,
                f"codec {container.codec.name!r} of container "
                f"{container.path!r} is order-agnostic; the binary "
                "search decompresses O(log n) pivot records",
                "prefer an order-preserving codec (alm/hutucker) for "
                "range-probed containers")
        return self._container_source(node, path, children)

    def _cont_substring(self, node: object, path: str,
                        children: list[PlanProperties]
                        ) -> PlanProperties:
        container = node.container  # type: ignore[attr-defined]
        needle = node.needle  # type: ignore[attr-defined]
        if not container.substring_indexable(needle):
            self._report(
                "plan.substring-not-indexable", path,
                f"container {container.path!r} has no q-gram "
                f"candidates for needle {needle!r} (a blob chunk, or "
                "a needle shorter than q)",
                "evaluate the predicate per binding")
        return self._container_source(node, path, children)

    def _summary_access(self, node: object, path: str,
                        children: list[PlanProperties]
                        ) -> PlanProperties:
        column = node.column  # type: ignore[attr-defined]
        # Extents merge-sort to document order, i.e. ascending node id.
        return PlanProperties({column: ColumnInfo(NODE)}, (column,))

    def _navigation(self, node: object, path: str,
                    children: list[PlanProperties]) -> PlanProperties:
        props = children[0]
        self._require_column(props,
                             node.input_column,  # type: ignore[attr-defined]
                             path, "input")
        # Parent/Child/Descendant preserve their input's row order
        # (§4), so established order keys stay valid; the new node
        # column itself carries no order.
        return props.with_column(
            node.output_column,  # type: ignore[attr-defined]
            ColumnInfo(NODE))

    def _content(self, node: object, path: str,
                 children: list[PlanProperties]) -> PlanProperties:
        props = children[0]
        self._require_column(props,
                             node.input_column,  # type: ignore[attr-defined]
                             path, "input")
        container = node.container  # type: ignore[attr-defined]
        return props.with_column(
            node.output_column,  # type: ignore[attr-defined]
            ColumnInfo(COMPRESSED, container.codec, container.path))

    def _passthrough(self, node: object, path: str,
                     children: list[PlanProperties]) -> PlanProperties:
        return children[0]

    # -- data combination ------------------------------------------------------

    def _select(self, node: object, path: str,
                children: list[PlanProperties]) -> PlanProperties:
        props = children[0]
        references = node.references  # type: ignore[attr-defined]
        for name in references or ():
            self._require_column(props, name, path, "predicate")
        kind = node.predicate_kind  # type: ignore[attr-defined]
        column = node.column  # type: ignore[attr-defined]
        if kind is not None:
            if kind not in PREDICATE_KINDS:
                self._report(
                    "plan.invalid-metadata", path,
                    f"unknown predicate kind {kind!r}",
                    f"use one of {', '.join(PREDICATE_KINDS)}")
                return props
            info = props.column(column) if column is not None else None
            if info is not None and info.kind == COMPRESSED:
                capabilities = info.capabilities
                assert capabilities is not None
                if not capabilities.supports(kind):
                    self._report(
                        _CAPABILITY_RULES[kind], path,
                        f"predicate kind {kind!r} on column {column!r} "
                        f"compressed with {info.codec.name!r} "  # type: ignore[union-attr]
                        f"(capabilities {capabilities})",
                        "Decompress the column first, or seal the "
                        "container with a codec supporting the "
                        "predicate")
        return props

    def _node_set(self, node: object, path: str,
                  children: list[PlanProperties]) -> PlanProperties:
        column = node.column  # type: ignore[attr-defined]
        for props in children:
            self._require_column(props, column, path, "node")
        # Sorted, duplicate-free ids: document order, like a summary
        # access; every other input column (values included) is gone.
        return PlanProperties({column: ColumnInfo(NODE)}, (column,))

    def _concat(self, node: object, path: str,
                children: list[PlanProperties]) -> PlanProperties:
        left, right = children
        # One run after the other: the columns of both, no order.
        return PlanProperties.merge(left, right, order=())

    def _project(self, node: object, path: str,
                 children: list[PlanProperties]) -> PlanProperties:
        props = children[0]
        kept: dict[str, ColumnInfo] = {}
        for name in node.columns:  # type: ignore[attr-defined]
            info = self._require_column(props, name, path, "projected")
            if info is not None:
                kept[name] = info
        order: list[str] = []
        for key in props.order:
            if key not in node.columns:  # type: ignore[attr-defined]
                break
            order.append(key)
        return PlanProperties(kept, tuple(order), props.open_schema)

    def _join_domains(self, path: str, left: ColumnInfo | None,
                      right: ColumnInfo | None,
                      left_name: str | None,
                      right_name: str | None) -> None:
        """Cross-domain check for a declared compressed-domain join."""
        if left is None or right is None:
            return
        if left.kind != COMPRESSED or right.kind != COMPRESSED:
            return
        if left.domain_key() != right.domain_key():
            self._report(
                "plan.cross-domain-compare", path,
                f"join compares {left_name!r} "
                f"({left.codec.name!r} model of "  # type: ignore[union-attr]
                f"{left.container_path!r}) with {right_name!r} "
                f"({right.codec.name!r} model of "  # type: ignore[union-attr]
                f"{right.container_path!r}); the compressed bit "
                "strings are not comparable",
                "group the two containers under one source model "
                "(§3.1) or decompress the keys")

    def _hash_join(self, node: object, path: str,
                   children: list[PlanProperties]) -> PlanProperties:
        left, right = children
        left_info = self._require_column(
            left, node.left_column,  # type: ignore[attr-defined]
            path, "left key")
        right_info = self._require_column(
            right, node.right_column,  # type: ignore[attr-defined]
            path, "right key")
        self._join_domains(path, left_info, right_info,
                           node.left_column,  # type: ignore[attr-defined]
                           node.right_column)  # type: ignore[attr-defined]
        # Probe side streams: output follows the left input's order.
        return PlanProperties.merge(left, right)

    def _merge_join(self, node: object, path: str,
                    children: list[PlanProperties]) -> PlanProperties:
        left, right = children
        left_column = node.left_column  # type: ignore[attr-defined]
        right_column = node.right_column  # type: ignore[attr-defined]
        if left_column is None or right_column is None:
            self._report(
                "plan.merge-join-unverifiable", path,
                "key columns are undeclared; sortedness of the inputs "
                "cannot be proven",
                "pass left_column=/right_column= to MergeJoin")
            return PlanProperties.merge(left, right, order=())
        left_info = self._require_column(left, left_column, path,
                                         "left key")
        right_info = self._require_column(right, right_column, path,
                                          "right key")
        for side, props, column in (("left", left, left_column),
                                    ("right", right, right_column)):
            if props.open_schema and not props.order:
                continue  # untyped input: nothing provable either way
            if not props.ordered_on(column):
                established = (f"established order is "
                               f"{list(props.order)}" if props.order
                               else "no order is established")
                self._report(
                    "plan.merge-join-unordered", path,
                    f"{side} input is not sorted on key column "
                    f"{column!r} ({established}); a one-pass merge "
                    "would drop matches",
                    "insert a Sort, or feed the join from a "
                    "value-ordered ContScan/ContAccess")
        self._join_domains(path, left_info, right_info, left_column,
                           right_column)
        # Merge output is ordered by the (equal) key columns.
        return PlanProperties.merge(left, right,
                                    order=(left_column,))

    def _theta_join(self, node: object, path: str,
                    children: list[PlanProperties]) -> PlanProperties:
        containers = node.containers  # type: ignore[attr-defined]
        if not (node.numeric_ordered()  # type: ignore[attr-defined]
                and all(c.codec.properties.ineq for c in containers)):
            self._report(
                "plan.theta-join-unordered", path,
                f"key containers {[c.path for c in containers]} are "
                "not all numeric-ordered; a slot range is not the set "
                "of matching keys", "use a NestedLoopJoin")
        # Probes stream in the left input's order; the key side adds
        # the owning-element column.
        return children[0].with_column(
            node.output_column,  # type: ignore[attr-defined]
            ColumnInfo(NODE))

    def _nested_loop_join(self, node: object, path: str,
                          children: list[PlanProperties]
                          ) -> PlanProperties:
        left, right = children
        merged = PlanProperties.merge(left, right)
        for name in node.references or ():  # type: ignore[attr-defined]
            self._require_column(merged, name, path, "condition")
        return merged

    def _distinct(self, node: object, path: str,
                  children: list[PlanProperties]) -> PlanProperties:
        props = children[0]
        for name in node.columns or ():  # type: ignore[attr-defined]
            self._require_column(props, name, path, "key")
        return props

    def _sort(self, node: object, path: str,
              children: list[PlanProperties]) -> PlanProperties:
        props = children[0]
        columns = node.columns  # type: ignore[attr-defined]
        for name in columns or ():
            self._require_column(props, name, path, "sort key")
        return PlanProperties(props.columns,
                              tuple(columns) if columns else (),
                              props.open_schema)

    # -- (de)compression / serialization --------------------------------------

    def _decompress(self, node: object, path: str,
                    children: list[PlanProperties]) -> PlanProperties:
        props = children[0]
        for name in node.columns:  # type: ignore[attr-defined]
            info = self._require_column(props, name, path,
                                        "decompressed")
            if info is None:
                continue
            if info.kind == COMPRESSED and not info.decompressed:
                props = props.with_column(name, info.decompress())
            elif info.decompressed:
                self._report(
                    "plan.duplicate-decompress", path,
                    f"column {name!r} was already decompressed by an "
                    "upstream Decompress",
                    "decompress each value exactly once, at the top "
                    "of the plan")
            else:
                kind = "a node reference" if info.kind == NODE \
                    else "already plain"
                self._report(
                    "plan.duplicate-decompress", path,
                    f"column {name!r} is {kind}; Decompress has "
                    "nothing to do",
                    "drop the column from the Decompress list")
        return props

    def _xml_serialize(self, node: object, path: str,
                       children: list[PlanProperties]) -> PlanProperties:
        props = children[0]
        for name in node.columns:  # type: ignore[attr-defined]
            info = self._require_column(props, name, path,
                                        "serialized")
            if info is not None and info.kind == COMPRESSED \
                    and not info.decompressed:
                self._report(
                    "plan.missing-decompress", path,
                    f"column {name!r} (codec "
                    f"{info.codec.name!r}) reaches serialization "  # type: ignore[union-attr]
                    "still compressed",
                    "insert Decompress([...]) below XMLSerialize")
            serialized = ColumnInfo(PLAIN, decompressed=True) \
                if info is None else info.decompress()
            props = props.with_column(name, serialized)
        return props
