"""SAX-like event stream with well-formedness (tag balance) checking.

:func:`scan` reads the scanner's token tuples and yields structural
tuples ``(kind, value, attributes)`` — a start tag, end tag or text —
enforcing that end tags match start tags, that there is exactly one root
element, and that no character data (other than whitespace) appears
outside the root.  The loader and the DOM read these tuples directly;
:func:`iter_events` wraps them as event objects for everyone else.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from repro.xmlio.escape import syntax_error
from repro.xmlio.tokenizer import CDATA, END_TAG, START_TAG, TEXT, scan_tokens


@dataclass(frozen=True, slots=True)
class StartDocument:
    """Emitted once before any other event."""


@dataclass(frozen=True, slots=True)
class EndDocument:
    """Emitted once after the root element closes."""


@dataclass(frozen=True, slots=True)
class StartElement:
    """An opening (or self-closing) tag with its attributes."""

    name: str
    attributes: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True, slots=True)
class EndElement:
    """A closing tag."""

    name: str


@dataclass(frozen=True, slots=True)
class Characters:
    """Character data between tags (entities already resolved)."""

    text: str


Event = StartDocument | EndDocument | StartElement | EndElement | Characters


def scan(text: str, keep_whitespace: bool = False) -> Iterator[tuple]:
    """Yield ``(START_TAG, name, attributes)``, ``(END_TAG, name, ())``
    and ``(TEXT, text, ())`` for an XML document string.

    ``keep_whitespace`` controls whether whitespace-only character data
    between elements is reported; value-only documents in this corpus never
    need it, and dropping it matches how XPRESS-style compressors treat
    ignorable whitespace.
    """
    stack: list[str] = []
    saw_root = False
    for kind, value, attributes, at in scan_tokens(text):
        if kind == TEXT or kind == CDATA:
            if not value or value.isspace():
                if keep_whitespace and stack:
                    yield TEXT, value, ()
                continue
            if not stack:
                raise syntax_error(
                    text, "character data outside the root element", at)
            yield TEXT, value, ()
        elif kind == START_TAG:
            if not stack:
                if saw_root:
                    raise syntax_error(
                        text, f"second root element <{value}>", at)
                saw_root = True
            stack.append(value)
            yield START_TAG, value, attributes
        elif kind == END_TAG:
            if not stack:
                raise syntax_error(text, f"unexpected end tag </{value}>",
                                   at)
            expected = stack.pop()
            if expected != value:
                raise syntax_error(
                    text, f"end tag </{value}> does not match <{expected}>",
                    at)
            yield END_TAG, value, ()
    if stack:
        raise syntax_error(text, f"unclosed element <{stack[-1]}>",
                           len(text))
    if not saw_root:
        raise syntax_error(text, "document has no root element", len(text))


def iter_events(text: str, keep_whitespace: bool = False) -> Iterator[Event]:
    """Yield structural events for an XML document string (see
    :func:`scan`)."""
    yield StartDocument()
    for kind, value, attributes in scan(text, keep_whitespace):
        if kind == START_TAG:
            yield StartElement(value, attributes)
        elif kind == END_TAG:
            yield EndElement(value)
        else:
            yield Characters(value)
    yield EndDocument()
