"""Tests for compressed result shipping."""

import pytest

from repro.query.engine import QueryEngine
from repro.query.shipping import receive_result, ship_result
from repro.storage.loader import load_document
from repro.xmark.generator import generate_xmark


@pytest.fixture(scope="module")
def engine():
    return QueryEngine(load_document(generate_xmark(0.01, seed=12)))


def round_trip(result) -> list:
    return receive_result(ship_result(result)).values


class TestShipReceive:
    def test_text_values_roundtrip(self, engine):
        result = engine.execute("/site/people/person/name/text()")
        assert round_trip(result) == result.values()

    def test_numbers_and_booleans(self, engine):
        result = engine.execute("count(//person)")
        assert round_trip(result) == result.values()
        result = engine.execute("empty(//nothing)")
        assert round_trip(result) == result.values()

    def test_constructed_elements_roundtrip(self, engine):
        result = engine.execute(
            "for $p in /site/people/person[1] "
            'return <hit id="{$p/@id}">{$p/name/text()}</hit>')
        (received,) = round_trip(result)
        assert received.startswith('<hit id="person0">')
        assert received == result.to_xml()

    def test_node_results_materialize(self, engine):
        result = engine.execute('/site/people/person[1]/name')
        (received,) = round_trip(result)
        assert received.startswith("<name>")
        assert received == result.to_xml()

    def test_empty_result(self, engine):
        result = engine.execute("/site/nothing")
        assert round_trip(result) == []


class TestBandwidth:
    def test_compressed_beats_plain_serialization(self, engine):
        """The §1 claim: shipping compressed results saves bandwidth.

        Description texts are large and highly compressible; the frame
        (code bits, each codec named by an 8-byte digest) must undercut
        the decompressed text by far.
        """
        result = engine.execute("//description/text/text()")
        frame = ship_result(result)
        plain = result.to_xml().encode("utf-8")
        assert len(frame) < 0.4 * len(plain)
        assert receive_result(frame).values == result.values()

    def test_model_shipped_once(self, engine):
        """No model crosses the wire: a one-name frame is a few dozen
        bytes, and each further value costs its code bits only."""
        result = engine.execute("/site/people/person/name/text()")
        single = engine.execute("/site/people/person[1]/name/text()")
        many_frame = len(ship_result(result))
        one_frame = len(ship_result(single))
        assert one_frame < 64
        values = len(result.items)
        marginal = (many_frame - one_frame) / max(values - 1, 1)
        assert marginal < 40


class TestResultShipMethod:
    def test_queryresult_ship(self, engine):
        result = engine.execute("/site/people/person/name/text()")
        assert result.ship() == ship_result(result)
        assert receive_result(result.ship()).values == result.values()
