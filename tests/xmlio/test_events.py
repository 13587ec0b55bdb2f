"""Tests for the event stream and well-formedness enforcement."""

import hashlib

import pytest

from repro.errors import XMLSyntaxError
from repro.xmlio.events import (
    Characters,
    EndDocument,
    EndElement,
    StartDocument,
    StartElement,
    iter_events,
)


class TestEventStream:
    def test_simple_document(self):
        events = list(iter_events("<a><b>x</b></a>"))
        assert events == [
            StartDocument(),
            StartElement("a"),
            StartElement("b"),
            Characters("x"),
            EndElement("b"),
            EndElement("a"),
            EndDocument(),
        ]

    def test_empty_tag_produces_both_events(self):
        events = list(iter_events("<a/>"))
        assert events[1:3] == [StartElement("a"), EndElement("a")]

    def test_attributes_carried(self):
        events = list(iter_events('<a id="7"/>'))
        assert events[1] == StartElement("a", (("id", "7"),))

    def test_whitespace_dropped_by_default(self):
        events = list(iter_events("<a>\n  <b/>\n</a>"))
        assert not any(isinstance(e, Characters) for e in events)

    def test_whitespace_kept_on_request(self):
        events = list(iter_events("<a> <b/> </a>", keep_whitespace=True))
        assert sum(isinstance(e, Characters) for e in events) == 2

    def test_comments_and_pis_skipped(self):
        events = list(iter_events('<?xml version="1.0"?><a><!--c--></a>'))
        assert len(events) == 4  # start doc, start a, end a, end doc


class TestWellFormedness:
    @pytest.mark.parametrize("text", [
        "<a><b></a></b>",    # crossing tags
        "<a>",               # unclosed
        "</a>",              # end without start
        "<a/><b/>",          # two roots
        "text<a/>",          # data before root
        "",                  # empty input
        "   ",               # whitespace only
    ])
    def test_rejected(self, text):
        with pytest.raises(XMLSyntaxError):
            list(iter_events(text))

    def test_trailing_whitespace_ok(self):
        events = list(iter_events("<a/>\n\n"))
        assert isinstance(events[-1], EndDocument)


def event_digest(text: str) -> str:
    """sha256 over every event's class name and fields."""
    digest = hashlib.sha256()
    for event in iter_events(text):
        digest.update(repr((
            type(event).__name__, getattr(event, "name", None),
            getattr(event, "attributes", None),
            getattr(event, "text", None))).encode("utf-8", "surrogatepass")
            + b"\n")
    return digest.hexdigest()


#: the event streams of the benchmark's ingest documents and of XMark
#: f 0.05, as the character-at-a-time tokenizer produced them: the
#: scanner must reproduce them event for event.
PINNED_EVENT_DIGESTS = [
    ("xmark", 0.008, 42,
     "82e80d98a323988f499b352bfde51d918497acd7ea8a7ec3f75cfc48174c52f4"),
    ("shakespeare", 0.027, 7,
     "efedbcd476a77c88493c7802117d9d559d3db26da11f70e57acd0b2621ed54ca"),
    ("course", 0.05, 11,
     "83f8f5e60cbe16c1f00c8648de18fc5850c3bd9402fe7e6faab357ceda4bdad4"),
    ("baseball", 0.09, 13,
     "589df477a63a7085101d3411cc1262471b64e5935a131db52aa0d9f928258023"),
    ("xmark", 0.05, 42,
     "435120b288814d3690b144e98a6ae990390d34235a37ee01cc78c38dd29c0132"),
]


@pytest.mark.parametrize("generator,factor,seed,expected",
                         PINNED_EVENT_DIGESTS)
def test_event_stream_pinned(generator, factor, seed, expected):
    from repro import xmark
    generate = {"xmark": xmark.generate_xmark,
                "shakespeare": xmark.generate_shakespeare,
                "course": xmark.generate_washington_course,
                "baseball": xmark.generate_baseball}[generator]
    assert event_digest(generate(factor, seed=seed)) == expected
