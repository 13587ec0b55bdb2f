"""The CI ``shard-serving-smoke`` payload, run at tier-1 scale."""

import io

from repro.service.shard_smoke import main


def test_shard_smoke_passes_every_check():
    out = io.StringIO()
    code = main(["--factor", "0.002", "--rounds", "1", "--clients", "2"],
                out=out)
    output = out.getvalue()
    assert code == 0, output
    assert "shard serving smoke OK" in output
    assert "FAIL:" not in output
