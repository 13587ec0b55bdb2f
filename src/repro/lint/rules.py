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
    Rule("plan.ineq-order-agnostic", "error",
         "inequality predicate evaluated in the compressed domain of an "
         "order-agnostic codec (compressed order != value order)",
         "§3.2 (ineq capability)"),
    Rule("plan.wild-unsupported", "error",
         "wildcard/prefix predicate on a codec without the wild "
         "capability (ALM codes whole character sequences)",
         "§3.2 (wild capability)"),
    Rule("plan.eq-unsupported", "error",
         "compressed-domain equality on a codec without the eq "
         "capability (non-deterministic or chunked encoding)",
         "§3.2 (eq capability)"),
    Rule("plan.merge-join-unordered", "error",
         "MergeJoin input has no established sort order on its key "
         "column",
         "§4 (order guarantees of the access operators)"),
    Rule("plan.merge-join-unverifiable", "info",
         "MergeJoin key columns are undeclared; order cannot be "
         "verified statically",
         "§4"),
    Rule("plan.theta-join-unordered", "error",
         "ThetaJoin key container is not numeric-ordered (string-typed, "
         "blob, or order-agnostic codec): slot position is not the "
         "numeric comparison",
         "§2.2/§4 (sorted containers, order-preserving numeric codecs)"),
    Rule("plan.cross-domain-compare", "error",
         "compressed-domain comparison between columns compressed "
         "under different source models",
         "§3.1 (containers must share a source model to compare "
         "compressed)"),
    Rule("plan.missing-decompress", "error",
         "a compressed column reaches XMLSerialize without passing "
         "through Decompress",
         "§4 (Decompress precedes serialization)"),
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
    Rule("plan.invalid-metadata", "error",
         "declared operator metadata is malformed (e.g. an unknown "
         "predicate kind)",
         "§3.2"),
    # -- Tier B: source lint --------------------------------------------------
    Rule("src.operator-rows", "error",
         "Operator subclass does not implement _batches, the one "
         "protocol its rows and batches are both derived from",
         "§4 (one physical algebra); DESIGN.md §13"),
    Rule("src.operator-iter-override", "error",
         "Operator subclass overrides __iter__, bypassing the _traced "
         "telemetry routing",
         "observability invariant (PR 1)"),
    Rule("src.codec-properties", "error",
         "codec registered in compression.registry does not declare "
         "CompressionProperties",
         "§3.2 (every algorithm is characterized by its capability "
         "tuple)"),
    Rule("src.raw-decode", "error",
         "direct codec decode call inside a physical operator body "
         "outside the sanctioned TextContent/Decompress sites",
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
         "self-attribute) — invisible to the Tier-C lock analysis "
         "and the runtime watchdog",
         "concurrency discipline (PR 7)"),
    # -- Tier C: concurrency lint ---------------------------------------------
    Rule("conc.lock-order-cycle", "error",
         "cycle in the static lock-acquisition graph: two code paths "
         "acquire the same locks in opposite orders (deadlock)",
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
