"""Entity escaping and unescaping for XML text and attribute values."""

from __future__ import annotations

import re

from repro.errors import XMLSyntaxError

_NAMED_ENTITIES = {
    "amp": "&",
    "lt": "<",
    "gt": ">",
    "quot": '"',
    "apos": "'",
}
_CHARACTER_REFERENCE = re.compile("#(?:[xX]([0-9a-fA-F]+)|([0-9]+))")


def escape_text(text: str) -> str:
    """Escape character data for element content (a carriage return as
    a reference, so that line-end normalization keeps it)."""
    if "&" in text or "<" in text or ">" in text or "\r" in text:
        return (text.replace("&", "&amp;").replace("<", "&lt;")
                .replace(">", "&gt;").replace("\r", "&#13;"))
    return text


def escape_attribute(value: str) -> str:
    """Escape character data for a double-quoted attribute value
    (whitespace other than a space as references, so that
    attribute-value normalization keeps it)."""
    if "&" in value or "<" in value or '"' in value or "\t" in value \
            or "\n" in value or "\r" in value:
        return (value.replace("&", "&amp;").replace("<", "&lt;")
                .replace('"', "&quot;").replace("\t", "&#9;")
                .replace("\n", "&#10;").replace("\r", "&#13;"))
    return value


def syntax_error(text: str, message: str, at: int) -> XMLSyntaxError:
    """An :class:`XMLSyntaxError` at offset ``at`` of ``text``, with its
    line and column."""
    line = text.count("\n", 0, at) + 1
    column = at - (text.rfind("\n", 0, at) + 1) + 1
    return XMLSyntaxError(message, at, line, column)


def resolve_entity(name: str) -> str:
    """Resolve a named or numeric character reference (without
    ``&``/``;``); a number must name an XML 1.0 character (§2.2).
    :func:`unescape` locates the error in the document."""
    char = _NAMED_ENTITIES.get(name)
    if char is not None:
        return char
    number = _CHARACTER_REFERENCE.fullmatch(name)
    if number is None:
        raise XMLSyntaxError(f"bad character reference &{name};"
                             if name.startswith("#") else
                             f"unknown entity &{name};")
    code = int(number.group(1) or number.group(2),
               16 if number.group(1) else 10)
    if not (0x20 <= code <= 0xD7FF or code in (0x9, 0xA, 0xD)
            or 0xE000 <= code <= 0xFFFD or 0x10000 <= code <= 0x10FFFF):
        raise XMLSyntaxError(f"illegal character reference &{name};")
    return chr(code)


def unescape(text: str, start: int = 0, end: int | None = None) -> str:
    """Replace entity and character references in ``text[start:end]``;
    an error carries its offset, line and column in ``text``."""
    value = text[start:end]
    if "&" not in value:
        return value
    head, *parts = value.split("&")
    out = [head]
    at = start + len(head)
    for part in parts:
        stop = part.find(";")
        try:
            if stop == -1:
                raise XMLSyntaxError("unterminated entity reference")
            out += resolve_entity(part[:stop]), part[stop + 1:]
        except XMLSyntaxError as error:
            raise syntax_error(text, str(error), at) from None
        at += len(part) + 1
    return "".join(out)
