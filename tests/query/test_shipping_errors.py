"""Shipping error paths + result-set framing.

The §1 network argument only holds if a shipped frame is safe to
receive: truncated streams, out-of-range codec references, digests no
live repository holds and garbage code bits must raise
:class:`CorruptDataError` — never leak a
``struct.error``/``KeyError``/``IndexError`` — and must never hand the
caller a partially materialized result.  Fuzzed with the PR 5
adversarial corpus generators.
"""

import multiprocessing
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.compression.serialization import codec_digest
from repro.errors import CorruptDataError, XQueCError
from repro.query.context import CompressedItem, EvaluationStats
from repro.query.engine import QueryEngine
from repro.query.shipping import (
    _KIND_COMPRESSED,
    FRAME_MAGIC,
    FRAME_VERSION,
    receive_result,
    ship_result,
)
from repro.storage.loader import load_document
from repro.util.bytestream import ByteWriter
from repro.verify.documents import generate_entities, render_xml
from repro.verify.queries import generate_queries
from repro.xmark.generator import generate_xmark
from repro.xmark.queries import XMARK_QUERIES, query_text
from tests.xmark.test_queries import PINNED_STATS

SEED = 1234
ROOT = Path(__file__).resolve().parents[2]

#: ``plain_bytes`` of every XMark query's frame on the XMark f 0.01,
#: seed 5 document, as frame v1 counted them: the wire ratio's
#: denominator does not move with the frame layout.
PLAIN_BYTES = {
    "Q1": 11, "Q2": 660, "Q3": 341, "Q4": 48, "Q5": 2, "Q6": 6,
    "Q7": 3, "Q8": 2246, "Q9": 1922, "Q10": 76, "Q11": 4,
    "Q13": 9794, "Q14": 73, "Q15": 13897, "Q16": 549, "Q17": 557,
    "Q18": 286, "Q19": 345, "Q20": 100,
}


@pytest.fixture(scope="module")
def corpus():
    """(engine, queries) over a PR 5 adversarial document."""
    rng = random.Random(SEED)
    entities = generate_entities(rng, scale=12)
    engine = QueryEngine(load_document(render_xml(entities)))
    queries = generate_queries(entities, rng, 12)
    return engine, queries


@pytest.fixture(scope="module")
def frames(corpus):
    engine, queries = corpus
    out = []
    for query in queries:
        result = engine.execute(query)
        result.values()  # materialize first so stats are final
        out.append((query, result, ship_result(result)))
    return out


@pytest.fixture(scope="module")
def xmark():
    return QueryEngine(load_document(generate_xmark(0.01, seed=5)))


@pytest.fixture(scope="module")
def name_item(xmark):
    """One still-compressed value (a person's name)."""
    (item,) = xmark.execute(
        "/site/people/person[1]/name/text()")._raw_items
    assert isinstance(item, CompressedItem)
    return item


def _frame(digests, body: bytes, version: int = FRAME_VERSION) -> bytes:
    """A frame built field by field (the layout of ``ship_result``)."""
    writer = ByteWriter().exact(FRAME_MAGIC).byte(version)
    for _ in EvaluationStats.FIELDS:
        writer.varint(0)
    writer.varint(len(digests))
    for digest in digests:
        writer.exact(digest)
    return writer.exact(body).getvalue()


def _one_hole(ref: int, bits: int, data: bytes) -> bytes:
    return ByteWriter().varint(1).byte(_KIND_COMPRESSED).varint(ref) \
        .varint(bits).raw(data).getvalue()


class TestFraming:
    def test_round_trip_values_and_xml(self, frames):
        for query, result, frame in frames:
            received = receive_result(frame)
            assert received.values == result.values(), query
            assert received.to_xml() == result.to_xml(), query

    def test_round_trip_stats(self, frames):
        for _, result, frame in frames:
            received = receive_result(frame)
            assert received.stats.as_dict() == result.stats.as_dict()

    def test_byte_accounting(self, frames):
        for _, result, frame in frames:
            received = receive_result(frame)
            assert received.wire_bytes == len(frame)
            assert received.plain_bytes >= 0
            if len(received.values) == 0:
                continue
            ratio = received.compression_ratio
            assert ratio is None or ratio > 0

    def test_bad_magic_rejected(self, frames):
        _, _, frame = frames[0]
        mangled = b"NOPE" + frame[len(FRAME_MAGIC):]
        with pytest.raises(CorruptDataError):
            receive_result(mangled)

    def test_bad_version_rejected(self, frames):
        _, _, frame = frames[0]
        mangled = frame[:4] + bytes([250]) + frame[5:]
        with pytest.raises(CorruptDataError):
            receive_result(mangled)

    def test_trailing_bytes_rejected(self, frames):
        for _, _, frame in frames[:4]:
            with pytest.raises(CorruptDataError):
                receive_result(frame + b"\x00")


def _assert_receive_total(payload: bytes) -> None:
    """receive_result either succeeds or raises CorruptDataError.

    Any other exception type is a broken error path; a successful
    decode must be a complete list (receive_result never yields
    partials, so success + list is the whole contract checkable from
    outside).
    """
    try:
        received = receive_result(payload)
    except CorruptDataError:
        return
    except XQueCError as exc:  # any other library error is a bug
        raise AssertionError(
            f"receive_result raised {type(exc).__name__}, "
            f"expected CorruptDataError") from exc
    except Exception as exc:  # noqa: BLE001
        raise AssertionError(
            f"receive_result leaked {type(exc).__name__}: "
            f"{exc}") from exc
    assert isinstance(received.values, list)


class TestFuzzedPayloads:
    def test_truncations(self, frames):
        _, _, frame = frames[0]
        # Every cut in the header region, then sampled cuts across
        # the body.
        rng = random.Random(SEED)
        cuts = set(range(min(24, len(frame))))
        cuts.update(rng.randrange(len(frame)) for _ in range(48))
        for cut in sorted(cuts):
            truncated = frame[:cut]
            with pytest.raises(CorruptDataError):
                receive_result(truncated)

    def test_truncated_item_payload_raises_not_struct_error(self,
                                                            frames):
        # Cut inside the item section of every frame.
        for _, _, frame in frames:
            for cut in (len(frame) - 1, len(frame) - 3,
                        int(len(frame) * 0.75)):
                if cut <= 0:
                    continue
                with pytest.raises(CorruptDataError):
                    receive_result(frame[:cut])

    def test_random_byte_flips(self, frames):
        rng = random.Random(SEED)
        for _, _, frame in frames[:4]:
            for _ in range(12):
                mutated = bytearray(frame)
                for _ in range(rng.randint(1, 4)):
                    pos = rng.randrange(len(mutated))
                    mutated[pos] ^= 1 << rng.randrange(8)
                _assert_receive_total(bytes(mutated))

    def test_random_garbage(self):
        rng = random.Random(SEED + 1)
        for _ in range(60):
            garbage = bytes(rng.randrange(256)
                            for _ in range(rng.randrange(1, 120)))
            _assert_receive_total(garbage)
            _assert_receive_total(FRAME_MAGIC + bytes([FRAME_VERSION])
                                  + garbage)

    def test_unknown_codec_reference(self, corpus):
        engine, queries = corpus
        # Find a frame whose items carry a compressed value, then bump
        # its codec reference out of range.
        for query in queries:
            result = engine.execute(query)
            if not any(isinstance(i, CompressedItem)
                       for i in result._raw_items):
                continue
            frame = bytearray(ship_result(result))
            # The first _KIND_COMPRESSED tag byte is followed by the
            # codec reference varint; 0x7F is out of range for any
            # corpus result (few distinct codecs per query).
            for pos in range(len(frame) - 1):
                if frame[pos] == _KIND_COMPRESSED:
                    frame[pos + 1] = 0x7F
                    break
            _assert_receive_total(bytes(frame))
            return
        pytest.skip("corpus produced no compressed items")


class TestFrameV2Errors:
    """Each malformed hole or codec table raises, whole."""

    def test_hand_built_frame_decodes(self, name_item):
        compressed = name_item.compressed
        frame = _frame([codec_digest(name_item.codec)],
                       _one_hole(0, compressed.bits, compressed.data))
        assert receive_result(frame).values == [name_item.decode()]

    def test_truncated_hole(self, name_item):
        compressed = name_item.compressed
        frame = _frame([codec_digest(name_item.codec)],
                       _one_hole(0, compressed.bits, compressed.data))
        for cut in range(1, len(compressed.data) + 3):
            with pytest.raises(CorruptDataError):
                receive_result(frame[:-cut])

    def test_hole_bits_past_its_bytes(self, name_item):
        compressed = name_item.compressed
        for bits in (compressed.bits + 8, len(compressed.data) * 8 + 1):
            frame = _frame([codec_digest(name_item.codec)],
                           _one_hole(0, bits, compressed.data))
            with pytest.raises(CorruptDataError, match="carries"):
                receive_result(frame)

    def test_codec_ref_out_of_range(self, name_item):
        compressed = name_item.compressed
        frame = _frame([codec_digest(name_item.codec)],
                       _one_hole(1, compressed.bits, compressed.data))
        with pytest.raises(CorruptDataError, match="codec 1"):
            receive_result(frame)

    def test_version_1_frame_rejected(self, name_item):
        compressed = name_item.compressed
        frame = _frame([codec_digest(name_item.codec)],
                       _one_hole(0, compressed.bits, compressed.data),
                       version=1)
        with pytest.raises(CorruptDataError, match="version 1"):
            receive_result(frame)

    def test_unknown_digest_rejected(self, name_item):
        compressed = name_item.compressed
        frame = _frame([b"\x00" * 8],
                       _one_hole(0, compressed.bits, compressed.data))
        with pytest.raises(CorruptDataError, match="no repository"):
            receive_result(frame)

    def test_frame_needs_the_repository_in_process(self, xmark):
        """A frame decodes only where its codecs live: a fresh
        interpreter that never loaded the document refuses it, typed
        and whole."""
        frame = ship_result(xmark.execute(query_text("Q15")))
        script = (
            "import sys\n"
            "from repro.errors import CorruptDataError\n"
            "from repro.query.shipping import receive_result\n"
            "try:\n"
            "    receive_result(sys.stdin.buffer.read())\n"
            "except CorruptDataError as exc:\n"
            "    print('refused:', exc)\n"
            "else:\n"
            "    sys.exit('decoded without the repository')\n")
        completed = subprocess.run(
            [sys.executable, "-c", script], input=frame,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True, timeout=120)
        assert completed.returncode == 0, completed.stderr
        assert b"refused:" in completed.stdout


class TestXMarkRoundTrip:
    @pytest.mark.parametrize("query_id", sorted(XMARK_QUERIES))
    def test_frame_round_trips(self, query_id, xmark):
        result = xmark.execute(query_text(query_id))
        received = receive_result(ship_result(result))
        assert received.to_xml() == result.to_xml()
        assert received.plain_bytes == PLAIN_BYTES[query_id]

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="sharded serving requires the fork start method")
    def test_worker_ships_q15_text_undecoded(self, xmark):
        """The worker never decodes the ``<text>`` content it ships;
        in-process, reading the items charges what eager decoding
        did."""
        from repro.service.shards import ShardedDatabase
        text = query_text("Q15")
        with ShardedDatabase(xmark.repository, shard_count=2) as plane:
            received = plane.execute(text)
        local = xmark.execute(text)
        assert received.stats.decompressions == 0
        assert received.compressed_value_bytes > 0
        assert received.to_xml() == local.to_xml()
        assert local.stats.decompressions == PINNED_STATS["Q15"][0]
