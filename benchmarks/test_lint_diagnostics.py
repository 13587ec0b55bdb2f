"""Plan-verifier diagnostics attached to benchmark telemetry.

Every instrumented benchmark run now carries the static verifier's
findings in its telemetry document (``diagnostics`` key), so a result
file records not only *how fast* a query ran but also whether its plan
degraded anywhere (decompressing interval probes, blob scans).  This
bench persists one such document per representative XMark query
through the shared ``telemetry_sink`` fixture and asserts the engine
gate held: no error-severity diagnostic ever reaches an executed run.
"""

from __future__ import annotations

import pytest

from repro.obs.telemetry import Telemetry
from repro.query.options import ExecutionOptions
from repro.xmark.queries import query_text

#: one cheap path query, one range query, one value join.
LINT_BENCH_QUERIES = ("Q1", "Q3", "Q8")


@pytest.mark.parametrize("query_id", LINT_BENCH_QUERIES)
def test_diagnostics_persisted_with_telemetry(query_id, xquec_system,
                                              telemetry_sink):
    telemetry = Telemetry()
    xquec_system.execute(
        query_text(query_id),
        ExecutionOptions(telemetry=telemetry)).to_xml()
    document = telemetry.to_dict()
    assert "diagnostics" in document
    # The gate raises on errors before execution, so a run that got
    # this far can only carry warnings/infos.
    severities = {d["severity"] for d in document["diagnostics"]}
    assert "error" not in severities
    assert document["diagnostics"] == \
        [d.to_dict() for d in telemetry.diagnostics]
    telemetry_sink(telemetry,
                   experiment=f"lint_{query_id.lower()}")

