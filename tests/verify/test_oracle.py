"""Oracle self-tests.

Two directions: the oracles must pass on the shipped codecs and engine
(zero mismatches on a small fixed budget), and they must *fail* on
deliberately broken codecs — a correctness oracle that cannot detect a
planted bug verifies nothing.
"""

import json

import pytest

from repro.compression import registry
from repro.compression.base import (
    Codec,
    CompressedValue,
    CompressionProperties,
)
from repro.verify.codec_oracle import run_codec_oracle
from repro.query import physical
from repro.verify.engine_oracle import (_BlameRecorder, _plan_node,
                                        run_engine_oracle)
from repro.verify.report import Mismatch, VerifyReport, write_corpus
from repro.verify.runner import run_verify
from repro.verify.values import float_values, int_values, string_values


class TestCleanRun:
    def test_codec_oracle_all_registered_codecs_clean(self):
        report = run_codec_oracle(seed=0, rounds=1,
                                  values_per_round=24)
        assert report.ok, report.render_text()
        assert report.checks_run > 0

    def test_engine_oracle_clean(self):
        report = run_engine_oracle(seed=0, docs=2, queries=8)
        assert report.ok, report.render_text()
        assert report.checks_run == 2 * 8 * 2   # docs x queries x variants

    def test_run_verify_merges_both_layers(self):
        report = run_verify(seed=0, docs=1, queries=4,
                            codec_rounds=1, codec_values=12)
        assert report.ok, report.render_text()
        assert report.checks_run > 8


class TestDeterminism:
    def test_value_generators_are_seed_deterministic(self):
        import random
        for maker in (string_values, int_values, float_values):
            a = maker(random.Random("seed/x"), 32)
            b = maker(random.Random("seed/x"), 32)
            assert a == b

    def test_codec_oracle_reports_identically(self):
        first = run_codec_oracle(seed=3, rounds=1, values_per_round=16,
                                 codecs=["huffman", "integer"])
        second = run_codec_oracle(seed=3, rounds=1, values_per_round=16,
                                  codecs=["huffman", "integer"])
        assert first.to_json() == second.to_json()


class _ReversedOrderCodec(Codec):
    """Deliberately broken: claims ``ineq`` but inverts byte order."""

    name = "verify-broken-order"
    properties = CompressionProperties(eq=True, ineq=True, wild=False)

    @classmethod
    def train(cls, values):
        return cls()

    def encode(self, value):
        data = bytes(255 - b for b in value.encode("utf-8"))
        return CompressedValue(data, len(data) * 8)

    def decode(self, compressed):
        raw = compressed.data[:compressed.bits // 8]
        return bytes(255 - b for b in raw).decode("utf-8")

    def model_size_bytes(self):
        return 0


class _TruncatingCodec(Codec):
    """Deliberately broken: decode loses the last byte."""

    name = "verify-broken-roundtrip"
    properties = CompressionProperties(eq=False, ineq=False, wild=False)

    @classmethod
    def train(cls, values):
        return cls()

    def encode(self, value):
        data = value.encode("utf-8")
        return CompressedValue(data, len(data) * 8)

    def decode(self, compressed):
        raw = compressed.data[:compressed.bits // 8]
        return raw[:-1].decode("utf-8", errors="ignore")

    def model_size_bytes(self):
        return 0


@pytest.fixture
def broken_codecs():
    registry.register_codec(_ReversedOrderCodec)
    registry.register_codec(_TruncatingCodec)
    yield
    registry._REGISTRY.pop(_ReversedOrderCodec.name, None)
    registry._REGISTRY.pop(_TruncatingCodec.name, None)


class TestPlantedBugs:
    """The oracle must catch a codec that lies about its properties."""

    def test_order_violation_detected_and_minimized(self, broken_codecs):
        report = run_codec_oracle(
            seed=0, rounds=1, values_per_round=16,
            codecs=[_ReversedOrderCodec.name])
        assert not report.ok
        ineq = [m for m in report.mismatches if m.check == "ineq"]
        assert ineq, report.render_text()
        # ddmin shrinks the witness to two out-of-order values.
        assert len(ineq[0].reproducer["values"]) == 2

    def test_roundtrip_violation_detected(self, broken_codecs):
        report = run_codec_oracle(
            seed=0, rounds=1, values_per_round=16,
            codecs=[_TruncatingCodec.name])
        assert not report.ok
        checks = {m.check for m in report.mismatches}
        assert "round-trip" in checks, report.render_text()
        broken = [m for m in report.mismatches
                  if m.check == "round-trip"][0]
        # A single non-empty value suffices to witness the truncation.
        assert len(broken.reproducer["values"]) == 1


class TestReporting:
    def _mismatch(self):
        return Mismatch(layer="codec", check="wild", codec="huffman",
                        container="/doc/name/#text",
                        plan_node="ContAccess",
                        description="starts_with disagreement",
                        reproducer={"values": ["a", "ab"], "probe": "a"})

    def test_headline_carries_blame(self):
        line = self._mismatch().headline()
        assert "codec/wild" in line
        assert "huffman" in line
        assert "/doc/name/#text" in line
        assert "ContAccess" in line

    def test_json_round_trips(self):
        report = VerifyReport(seed=7)
        report.checks_run = 3
        report.add(self._mismatch())
        doc = json.loads(report.to_json())
        assert doc["seed"] == 7
        assert doc["ok"] is False
        assert doc["mismatches"][0]["plan_node"] == "ContAccess"

    def test_blame_names_plan_operators(self):
        """Blame maps container activity onto operators plans contain."""
        cases = [([], [("/a", "eq")], "ContAccess"),
                 ([("/a", "scans")], [], "ContScan"),
                 ([("/a", "record_reads")], [], "Decompress"),
                 ([], [], None)]
        for accesses, predicates, expected in cases:
            recorder = _BlameRecorder()
            recorder.accesses.extend(accesses)
            recorder.predicates.extend(predicates)
            assert _plan_node(recorder) == expected
            if expected is not None:
                assert issubclass(getattr(physical, expected),
                                  physical.Operator)

    def test_write_corpus(self, tmp_path):
        report = VerifyReport(seed=7)
        report.add(self._mismatch())
        written = write_corpus(report, tmp_path / "corpus")
        names = sorted(p.name for p in written)
        assert "summary.json" in names
        assert any(n.startswith("counterexample-000") for n in names)
        payload = json.loads(
            (tmp_path / "corpus" /
             "counterexample-000-codec-wild.json").read_text())
        assert payload["reproducer"]["values"] == ["a", "ab"]
