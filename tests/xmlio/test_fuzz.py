"""Fuzzing the XML layer: malformed input must fail *cleanly*.

The tokenizer/parser may reject garbage (with :class:`XMLSyntaxError`,
carrying a position) but must never raise anything else or hang —
the loader is exposed to arbitrary user files.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import XMLSyntaxError
from repro.service.session import Database, Session
from repro.storage.loader import load_document
from repro.storage.serialization import save_repository
from repro.xmark import generate_xmark
from repro.xmlio.dom import parse
from repro.xmlio.tokenizer import tokenize
from repro.xmlio.writer import serialize

_XMLISH = st.text(
    alphabet=st.sampled_from(list("<>/=\"'& ;abcdeXY01[]!?-\n\t")),
    max_size=120)


@settings(deadline=None, max_examples=300)
@given(_XMLISH)
def test_tokenizer_never_crashes(text):
    try:
        tokenize(text)
    except XMLSyntaxError:
        pass  # rejection is fine; any other exception is a bug


@settings(deadline=None, max_examples=200)
@given(_XMLISH)
def test_parse_never_crashes(text):
    try:
        parse(text)
    except XMLSyntaxError:
        pass


@settings(deadline=None, max_examples=100)
@given(_XMLISH)
def test_loader_never_crashes(text):
    try:
        load_document(text)
    except XMLSyntaxError:
        pass


@settings(deadline=None, max_examples=100)
@given(st.text(max_size=80))
def test_arbitrary_unicode_content_roundtrips(payload):
    """Any text survives escape -> serialize -> parse -> text()."""
    from repro.xmlio.escape import escape_text
    document = parse(f"<a>{escape_text(payload)}</a>")
    if payload.strip():
        assert document.root.text() == payload
    reparsed = parse(serialize(document))
    assert reparsed.root.text() == document.root.text()


class TestPathological:
    def test_deep_nesting(self):
        depth = 500
        text = "".join(f"<n{i}>" for i in range(depth)) + "x" + \
            "".join(f"</n{i}>" for i in reversed(range(depth)))
        document = parse(text)
        assert document.root.name == "n0"
        repo = load_document(text)
        assert repo.statistics.max_depth == depth

    def test_many_siblings(self):
        text = "<r>" + "<c/>" * 5000 + "</r>"
        repo = load_document(text)
        assert repo.statistics.element_count == 5001

    def test_huge_attribute(self):
        value = "v" * 50_000
        repo = load_document(f'<a x="{value}"/>')
        assert repo.attribute_of(0, "x") == value

    def test_many_distinct_tags(self):
        text = "<r>" + "".join(f"<t{i}/>" for i in range(300)) + "</r>"
        repo = load_document(text)
        assert len(repo.dictionary) == 301
        assert repo.dictionary.code_bits >= 9


FIXTURE = (Path(__file__).parent.parent / "data" /
           "rare_constructs.xml").read_bytes().decode("utf-8")
XMARK = generate_xmark(0.001, seed=3)
#: each markup character replaced by the next one.
FLIP = dict(zip('<>"\'=&/', '>"\'=&/<'))


def check_mutation(text: str) -> None:
    """Loading ``text`` either raises a located :class:`XMLSyntaxError`
    (and so does ``parse``) or yields a whole repository."""
    try:
        repository = load_document(text)
    except XMLSyntaxError as error:
        assert 0 <= error.offset <= len(text)
        assert error.line == text.count("\n", 0, error.offset) + 1
        assert error.column >= 1
        with pytest.raises(XMLSyntaxError):
            parse(text)
        return
    assert Session(repository).decompress() == serialize(parse(text))


class TestMutatedDocuments:
    @pytest.mark.parametrize("text,step", [(FIXTURE, 1), (XMARK, 97)])
    def test_truncated(self, text, step):
        for end in range(0, len(text), step):
            check_mutation(text[:end])

    @pytest.mark.parametrize("text,step", [(FIXTURE, 1), (XMARK, 23)])
    def test_one_markup_character_flipped(self, text, step):
        sites = [i for i, char in enumerate(text) if char in FLIP]
        for i in sites[::step]:
            check_mutation(text[:i] + FLIP[text[i]] + text[i + 1:])


def test_deep_document_round_trip(tmp_path):
    """Depth 2 000 goes load -> save -> open -> decompress: nothing on
    the path recurses per level."""
    depth = 2000
    text = "".join(f'<n{i % 7} k="{i}">' for i in range(depth)) + "x" + \
        "".join(f"</n{i % 7}>" for i in reversed(range(depth)))
    repository = load_document(text)
    assert repository.statistics.max_depth == depth
    path = tmp_path / "deep.xqc"
    save_repository(repository, path)
    assert Database.open(path).session().decompress() == \
        serialize(parse(text))
