"""The XML scanner: one compiled master pattern over the whole text.

:func:`scan_tokens` matches one lexical item per step — character data,
a start or empty tag with all its attributes, an end tag, a comment, a
processing instruction, a CDATA section or a DOCTYPE declaration
(skipped, internal subsets included) — and yields it as a plain tuple
``(kind, value, attributes, offset)``.  Nothing is read one character
at a time: the Python work per item is the dispatch on the group that
matched.

The scanner is strict at the lexical level (tag syntax, attribute
quoting, entity and character references); tag *balance* is enforced
one level up by :mod:`repro.xmlio.events`.  Where the pattern matches
nothing, :func:`_diagnose` re-reads the markup there piece by piece to
name the error and its position.

Line ends (``\\r\\n``, ``\\r``) become ``\\n`` (XML 1.0 §2.11), and
whitespace in attribute values becomes spaces (§3.3.3), before
references are replaced.
"""

from __future__ import annotations

import re

from repro.xmlio.escape import syntax_error, unescape

_S = "[ \t\r\n]"
_NAME = r"[A-Za-z_:][A-Za-z0-9_:.\-]*"
_PAIR = f"{_NAME}{_S}*={_S}*(?:\"[^\"<]*\"|'[^'<]*')"
#: an internal subset: brackets nest two deep (``"[a]"`` in a literal).
_SUBSET = r"\[(?:[^\[\]]|\[[^\[\]]*])*]"
_MARKUP = re.compile(
    "([^<]+)"                                            # 1 text
    f"|<({_NAME})((?:{_S}+{_PAIR})(?:{_S}*{_PAIR})*)?"   # 2 name, 3 pairs
    f"{_S}*(/?)>"                                        # 4 '/' or ''
    f"|</({_NAME}){_S}*>"                                # 5 end tag
    r"|<!\[CDATA\[(.*?)]]>"                              # 6 CDATA
    "|<!--(.*?)-->"                                      # 7 comment
    r"|<\?(.*?)\?>"                                      # 8 PI
    f"|<!DOCTYPE((?:[^\\[>]|{_SUBSET})*)>",               # 9 DOCTYPE
    re.DOTALL)
_ATTRIBUTE = re.compile(
    f"({_NAME}){_S}*={_S}*(?:\"([^\"]*)\"|'([^']*)')")
_SPACE = re.compile(f"{_S}*")
_NAME_AT = re.compile(_NAME)
#: attribute-value whitespace after line-end normalization (§3.3.3).
_SPACES = str.maketrans("\t\n", "  ")


#: token kinds: the number of the master pattern's group each matches.
TEXT = 1        # character data (references resolved)
START_TAG = 2   # <name attr="v" ...>, also the start of <name .../>
END_TAG = 5     # </name>, also the end of <name .../>
CDATA = 6       # <![CDATA[ ... ]]>
COMMENT = 7     # <!-- ... -->
PI = 8          # <?target data?>
DOCTYPE = 9     # <!DOCTYPE ...> (internal subset included)


def scan_tokens(text: str):
    """Yield ``(kind, value, attributes, offset)`` for every lexical item
    of ``text``: ``kind`` is one of the kinds above; ``value`` the
    tag name for tags, the text for TEXT/CDATA/COMMENT and the raw body
    for PI/DOCTYPE; ``attributes`` the (name, value) pairs of a tag in
    document order, else ``()``."""
    pos = 0
    for m in _MARKUP.finditer(text):
        if m.start() != pos:
            _diagnose(text, pos)
        kind = m.lastindex
        if kind == TEXT:
            value = m.group(1)
            if "&" in value or "\r" in value:
                value = _character_data(text, pos, m.end())
            yield TEXT, value, (), pos
        elif kind == 4:  # the last group of a start tag
            name = m.group(2)
            yield START_TAG, name, (
                _attributes(text, m.start(3), m.end(3), name, pos)
                if m.group(3) else ()), pos
            if m.group(4):
                yield END_TAG, name, (), pos
        elif kind == END_TAG:
            yield END_TAG, m.group(5), (), pos
        elif kind == CDATA:
            value = m.group(6)
            yield CDATA, value.replace("\r\n", "\n").replace(
                "\r", "\n"), (), pos
        else:
            yield kind, m.group(kind), (), pos
        pos = m.end()
    if pos != len(text):
        _diagnose(text, pos)


def _character_data(text: str, start: int, end: int,
                   spaces: dict | None = None) -> str:
    """``text[start:end]`` with line ends normalized (then, in an
    attribute value, ``spaces`` maps whitespace to spaces) and
    references replaced; errors at offsets in ``text``."""
    raw = text[start:end]
    if "\r" not in raw and (spaces is None or raw == raw.translate(spaces)):
        return unescape(text, start, end)
    unescape(text, start, end)  # report bad references where they are
    raw = raw.replace("\r\n", "\n").replace("\r", "\n")
    return unescape(raw if spaces is None else raw.translate(spaces))


def _attributes(text: str, start: int, end: int, tag: str, at: int
                ) -> tuple[tuple[str, str], ...]:
    """The (name, value) pairs the master pattern matched in
    ``text[start:end]``, in document order."""
    pairs = text[start:end]
    if "&" in pairs or "\t" in pairs or "\n" in pairs or "\r" in pairs:
        found = [(m.group(1), _character_data(text, *m.span(m.lastindex),
                                              _SPACES))
                 for m in _ATTRIBUTE.finditer(text, start, end)]
    else:
        found = [(name, double or single)
                 for name, double, single in _ATTRIBUTE.findall(pairs)]
    if len(found) > 1 and len({name for name, _ in found}) < len(found):
        names = [name for name, _ in found]
        duplicate = next(name for i, name in enumerate(names)
                         if name in names[:i])
        raise syntax_error(
            text, f"duplicate attribute {duplicate!r} on <{tag}>", at)
    return tuple(found)


def _diagnose(text: str, start: int):
    """Raise the lexical error in the markup at ``start``, where the
    master pattern matched nothing."""
    for opener, what in (("<!--", "comment"),
                         ("<![CDATA[", "CDATA section"),
                         ("<!DOCTYPE", "DOCTYPE declaration"),
                         ("<?", "processing instruction")):
        if text.startswith(opener, start):
            raise syntax_error(text, f"unterminated {what}", start)
    if text.startswith("</", start):
        name, at = _name(text, start + 2)
        raise syntax_error(text, f"malformed end tag </{name}",
                           _space(text, at))
    name, at = _name(text, start + 1)
    while True:
        at = _space(text, at)
        if at == len(text):
            raise syntax_error(text, f"unterminated start tag <{name}",
                               start)
        if text[at] == "/":
            raise syntax_error(text, "expected '/>'", at)
        attribute, at = _name(text, at)
        at = _space(text, at)
        if not text.startswith("=", at):
            raise syntax_error(text, f"attribute {attribute!r} missing '='",
                               at)
        at = _space(text, at + 1)
        if at == len(text) or text[at] not in "\"'":
            raise syntax_error(
                text, f"attribute {attribute!r} value must be quoted", at)
        end = text.find(text[at], at + 1)
        if end == -1:
            raise syntax_error(
                text, f"unterminated value for attribute {attribute!r}", at)
        if "<" in text[at:end]:
            raise syntax_error(
                text, f"'<' in value of attribute {attribute!r}", at)
        at = end + 1


def _name(text: str, at: int) -> tuple[str, int]:
    """The XML name at ``at`` and the offset after it."""
    match = _NAME_AT.match(text, at)
    if match is None:
        raise syntax_error(text, "expected an XML name", at)
    return match.group(), match.end()


def _space(text: str, at: int) -> int:
    return _SPACE.match(text, at).end()


def tokenize(text: str) -> list[tuple]:
    """Tokenize a whole document into a list of token tuples."""
    return list(scan_tokens(text))
