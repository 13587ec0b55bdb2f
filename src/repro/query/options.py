"""``ExecutionOptions``: the one knob surface for running a query.

Every run option lives on one frozen dataclass that all layers
(``QueryEngine.execute``, ``Session.execute``, ``PreparedQuery.run``,
the CLI) accept; each layer consumes the fields
that apply to it and passes the rest through unchanged.  No option
changes a plan, which is bound once, at prepare.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from repro.obs.telemetry import Telemetry


@dataclass(frozen=True)
class ExecutionOptions:
    """Every per-run option of the unified execution API.

    ``telemetry``
        The one tracing switch: a
        :class:`~repro.obs.telemetry.Telemetry` to record the run's
        spans — one per operator stream, with its rows — into.  ``None``
        (the default) runs untraced — only the eight
        :class:`~repro.query.context.EvaluationStats` counters of
        ``QueryResult.stats`` are kept.
    ``use_plan_cache`` / ``use_block_cache``
        Switches for the session's prepared-plan LRU and its
        decoded-record cache (the ``value_at`` / blob ``record_at``
        reads of materialisation and atomization).
    ``bindings``
        External variable bindings (name -> value) seeded into the
        evaluation environment, so one prepared query re-runs under
        different constants without re-parsing.  Scalar values are
        wrapped into singleton sequences.
    """

    telemetry: Telemetry | None = None
    use_plan_cache: bool = True
    use_block_cache: bool = True
    bindings: Mapping[str, object] | None = None

    def binding_environment(self) -> dict[str, list]:
        """The initial evaluation environment from ``bindings``.

        Values that are not already sequences are wrapped into
        singleton lists (the engine's item-sequence convention).
        """
        if not self.bindings:
            return {}
        return {name: value if isinstance(value, list) else [value]
                for name, value in self.bindings.items()}
