"""The telemetry-plane smoke payload, run at tier-1 scale."""

import io

from repro.service.telemetry_smoke import main


def test_telemetry_smoke_passes_every_check():
    out = io.StringIO()
    code = main(["--factor", "0.002", "--repeat", "1", "--workers", "2"],
                out=out)
    output = out.getvalue()
    assert code == 0, output
    assert "telemetry smoke OK" in output
    assert "FAIL:" not in output
