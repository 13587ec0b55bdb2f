"""The CI ``shard-serving-smoke`` payload, run at tier-1 scale."""

import io

from repro.query.shipping import ReceivedResultSet
from repro.service.shard_smoke import main

ARGS = ["--factor", "0.002", "--rounds", "1", "--clients", "2"]
SAME_XML = "every answer equals the in-process session's XML"


def test_shard_smoke_passes_every_check():
    out = io.StringIO()
    code = main(ARGS, out=out)
    output = out.getvalue()
    assert code == 0, output
    assert f"ok: {SAME_XML}" in output
    assert "shard serving smoke OK" in output
    assert "FAIL:" not in output


def test_shard_smoke_fails_on_a_wrong_answer(monkeypatch):
    """An answer whose XML the plane got wrong is a named FAIL line."""
    right = ReceivedResultSet.to_xml
    monkeypatch.setattr(ReceivedResultSet, "to_xml",
                        lambda self: right(self) + " ")
    out = io.StringIO()
    assert main(ARGS, out=out) == 1
    assert f"FAIL: {SAME_XML}" in out.getvalue()
