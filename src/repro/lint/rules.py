"""The rule catalog: every diagnostic either tier can emit.

Each rule carries the paper section whose assumption it enforces (the
DESIGN.md "Static analysis" table is generated from the same data), a
default severity, and a one-line summary.  Rule ids are stable strings
(``plan.*`` for the plan verifier, ``src.*`` for the source lint) so
CI configuration and telemetry queries can reference them.
"""

from __future__ import annotations

from dataclasses import dataclass

#: diagnostic severities, most severe first.
SEVERITIES = ("error", "warning", "info")


@dataclass(frozen=True)
class Rule:
    """One statically checkable engine invariant."""

    id: str
    severity: str
    summary: str
    #: the paper section whose assumption the rule enforces.
    paper: str

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"bad severity {self.severity!r}")


_ALL: tuple[Rule, ...] = (
    # -- Tier A: plan verifier ------------------------------------------------
    Rule("plan.merge-join-unordered", "error",
         "MergeJoin input has no established sort order on its key "
         "column",
         "§4 (order guarantees of the access operators)"),
    Rule("plan.theta-join-unordered", "error",
         "ThetaJoin key container is not numeric-ordered (string-typed, "
         "blob, or order-agnostic codec): slot position is not the "
         "numeric comparison",
         "§2.2/§4 (sorted containers, order-preserving numeric codecs)"),
    Rule("plan.compare-not-numeric", "error",
         "ColumnCompare side is not a numeric-ordered record container "
         "(string-typed, blob, or order-agnostic codec): its values do "
         "not compare as numbers",
         "§2.2/§4 (typed containers, order-preserving numeric codecs)"),
    Rule("plan.cross-domain-compare", "error",
         "compressed-domain comparison between columns compressed "
         "under different source models",
         "§3.1 (containers must share a source model to compare "
         "compressed)"),
    Rule("plan.duplicate-decompress", "warning",
         "Decompress applied to a column that is already plain",
         "§4 (decompress exactly once, at the top of the plan)"),
    Rule("plan.unknown-column", "error",
         "operator references a column no upstream operator produces",
         "§4 (plan well-formedness)"),
    Rule("plan.interval-not-binary-searchable", "warning",
         "ContAccess interval search on a blob container (no record "
         "access; degrades to a full decompressing scan)",
         "§2.2 (containers support binary search)"),
    Rule("plan.interval-decompressing", "warning",
         "ContAccess bounds on an order-agnostic codec: binary search "
         "must decompress O(log n) pivot records",
         "§2.2/§3.2"),
    Rule("plan.substring-not-indexable", "error",
         "ContSubstring on a container that cannot answer the needle "
         "(blob chunk, or needle shorter than the index's q): it has "
         "no candidate slots to emit",
         "§4 (bottom-up evaluation from the containers)"),
    Rule("plan.substring-inexact", "error",
         "exact ContSubstring whose needle the positional q-gram index "
         "cannot decide (shorter than q, or a word-contains word): its "
         "candidates would be taken as answers",
         "§4 (bottom-up evaluation from the containers)"),
    # -- Tier B: source lint --------------------------------------------------
    Rule("src.operator-rows", "error",
         "Operator subclass does not implement _run, the one call "
         "its whole output comes from",
         "§4 (one physical algebra); DESIGN.md §13"),
    Rule("src.operator-iter-override", "error",
         "Operator subclass overrides run, bypassing the telemetry "
         "span the base wraps _run in",
         "observability invariant (PR 1)"),
    Rule("src.codec-properties", "error",
         "codec registered in compression.registry does not declare "
         "CompressionProperties",
         "§3.2 (every algorithm is characterized by its capability "
         "tuple)"),
    Rule("src.raw-decode", "error",
         "direct codec decode call inside a physical operator body "
         "outside the sanctioned Decompress site",
         "§4 (decompression is an explicit plan operator)"),
    Rule("src.bare-except", "error",
         "naked except: swallows typed XQueC errors",
         "repo convention"),
    Rule("src.mutable-default", "error",
         "mutable default argument value",
         "repo convention"),
    Rule("src.untracked-threading-primitive", "error",
         "threading primitive created outside the inventoried "
         "positions (module constant, class-body constant or "
         "self-attribute) — invisible to the Tier-C lock analysis",
         "concurrency discipline (PR 7)"),
    # -- Tier C: concurrency lint ---------------------------------------------
    Rule("conc.nested-lock", "error",
         "a lock is acquired, directly or through a resolved call, "
         "while another lock is held (the hierarchy is flat)",
         "concurrency discipline (PR 7)"),
    Rule("conc.self-deadlock", "error",
         "a non-reentrant lock may be acquired again while already "
         "held on the same code path",
         "concurrency discipline (PR 7)"),
    Rule("conc.acquire-no-release", "error",
         "lock.acquire() without a release guaranteed on exception "
         "paths",
         "concurrency discipline (PR 7)"),
    Rule("conc.unguarded-field", "error",
         "field declared guarded-by a lock is touched outside a "
         "`with` on that lock",
         "concurrency discipline (PR 7)"),
    Rule("conc.unknown-guard", "error",
         "guarded-field annotation names a lock attribute the "
         "inventory does not know",
         "concurrency discipline (PR 7)"),
    Rule("conc.holds-violation", "error",
         "function annotated `# holds: <lock>` is called at a site "
         "where that lock is not held",
         "concurrency discipline (PR 7)"),
)

RULES: dict[str, Rule] = {rule.id: rule for rule in _ALL}


def rule(rule_id: str) -> Rule:
    """The catalog entry for ``rule_id`` (KeyError when unknown)."""
    return RULES[rule_id]
