"""``ExecutionOptions``: the one knob surface for running a query.

Every run option lives on one frozen dataclass that all layers
(``QueryEngine.execute``, ``Session.execute``, ``PreparedQuery.run``,
``XQueCSystem.query``, the CLI) accept; each layer consumes the fields
that apply to it and passes the rest through unchanged.
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
        spans, histograms and deep-layer counters into.  ``None``
        (the default) runs untraced — only the eight
        :class:`~repro.query.context.EvaluationStats` counters of
        ``QueryResult.stats`` are kept.
    ``record``
        Tri-state workload journalling: ``None`` follows the attached
        :class:`~repro.obs.workload.WorkloadRecorder`'s own ``enabled``
        flag (the historical behaviour); ``True`` requires a recorder
        and journals the run; ``False`` skips journalling even with an
        enabled recorder attached.
    ``use_plan_cache`` / ``use_block_cache``
        Session-level switches for the prepared-plan LRU and the
        decoded-block cache; the bare engine ignores them.
    ``bindings``
        External variable bindings (name -> value) seeded into the
        evaluation environment, so one prepared query re-runs under
        different constants without re-parsing.  Scalar values are
        wrapped into singleton sequences.
    """

    telemetry: Telemetry | None = None
    record: bool | None = None
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
