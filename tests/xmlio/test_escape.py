"""Direct tests for entity escaping/unescaping."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import XMLSyntaxError
from repro.xmlio.escape import (
    escape_attribute,
    escape_text,
    resolve_entity,
    unescape,
)


class TestEscape:
    def test_text_escapes_markup(self):
        assert escape_text("a < b & c > d") == \
            "a &lt; b &amp; c &gt; d"

    def test_attribute_escapes_quotes(self):
        assert escape_attribute('say "hi" & <go>') == \
            "say &quot;hi&quot; &amp; &lt;go>"

    def test_no_op_for_plain_text(self):
        assert escape_text("plain text") == "plain text"


class TestResolveEntity:
    @pytest.mark.parametrize("name,expected", [
        ("amp", "&"), ("lt", "<"), ("gt", ">"), ("quot", '"'),
        ("apos", "'"), ("#65", "A"), ("#x41", "A"), ("#X41", "A"),
        ("#128512", "\U0001F600"),
    ])
    def test_known(self, name, expected):
        assert resolve_entity(name) == expected

    @pytest.mark.parametrize("name", ["nbsp", "#xZZ", "#", "#x",
                                      "#99999999999"])
    def test_bad(self, name):
        with pytest.raises(XMLSyntaxError):
            resolve_entity(name)


class TestUnescape:
    def test_mixed(self):
        assert unescape("1 &lt; 2 &amp;&amp; x") == "1 < 2 && x"

    def test_numeric(self):
        assert unescape("&#72;&#105;") == "Hi"

    def test_unterminated(self):
        with pytest.raises(XMLSyntaxError):
            unescape("broken &amp")

    def test_no_entities_fast_path(self):
        text = "nothing here"
        assert unescape(text) is text


@given(st.text(max_size=60))
def test_text_roundtrip_property(text):
    assert unescape(escape_text(text)) == text


@given(st.text(max_size=60))
def test_attribute_roundtrip_property(text):
    assert unescape(escape_attribute(text)) == text


class TestDocumentOffsets:
    """A bad reference is reported where it sits in the document, with
    its line and column — by the loader and by ``dom.parse`` alike."""

    @pytest.mark.parametrize("text,offset,line,column", [
        ("<a>x &amp y</a>", 5, 1, 6),          # unterminated
        ("<a>&#x110000;</a>", 3, 1, 4),        # beyond Unicode
        ("<a>\n  ok &bogus; y</a>", 9, 2, 6),  # unknown, second line
        ('<a b="1" c="x &nope; y"/>', 14, 1, 15),
        ("<a>x\r\ny &#0;</a>", 8, 2, 3),       # CRLF before it
    ])
    def test_offset_line_column(self, text, offset, line, column):
        from repro.storage.loader import load_document
        from repro.xmlio.dom import parse
        for reader in (parse, load_document):
            with pytest.raises(XMLSyntaxError) as excinfo:
                reader(text)
            error = excinfo.value
            assert (error.offset, error.line, error.column) == \
                (offset, line, column), reader
            assert text[offset] == "&"

    def test_unescape_reports_offsets_in_its_text(self):
        with pytest.raises(XMLSyntaxError) as excinfo:
            unescape("ab\ncd &zz; ef", 3)
        assert (excinfo.value.offset, excinfo.value.line,
                excinfo.value.column) == (6, 2, 4)

    def test_unescape_span(self):
        assert unescape("<a>1 &lt; 2</a>", 3, 11) == "1 < 2"


class TestLegalCharacters:
    """XML 1.0 §4.1: a character reference must name a Char (§2.2)."""

    @pytest.mark.parametrize("name", [
        "#0", "#x0", "#8", "#x1F", "#xD800", "#xDFFF", "#xFFFE", "#xFFFF",
        "#x110000"])
    def test_illegal_rejected(self, name):
        from repro.storage.loader import load_document
        from repro.xmlio.dom import parse
        with pytest.raises(XMLSyntaxError):
            resolve_entity(name)
        for reader in (parse, load_document):
            with pytest.raises(XMLSyntaxError):
                reader(f"<a>&{name};</a>")
            with pytest.raises(XMLSyntaxError):
                reader(f'<a b="&{name};"/>')

    @pytest.mark.parametrize("name,char", [
        ("#9", "\t"), ("#xA", "\n"), ("#13", "\r"), ("#x20", " "),
        ("#xD7FF", "퟿"), ("#xE000", ""), ("#xFFFD", "�"),
        ("#x10000", "\U00010000"), ("#x10FFFF", "\U0010ffff")])
    def test_legal_accepted(self, name, char):
        assert resolve_entity(name) == char

    @pytest.mark.parametrize("name", ["#+65", "# 65", "#x-41", "#٣"])
    def test_only_ascii_digits(self, name):
        with pytest.raises(XMLSyntaxError):
            resolve_entity(name)


class TestEscapeKeepsNormalizedCharacters:
    def test_carriage_return_in_text_is_a_reference(self):
        assert escape_text("a\rb") == "a&#13;b"

    def test_attribute_whitespace_is_referenced(self):
        assert escape_attribute("a\tb\nc\rd") == "a&#9;b&#10;c&#13;d"


#: each character an attribute value escapes, and its reference.
ATTRIBUTE_ESCAPES = {"&": "&amp;", "<": "&lt;", '"': "&quot;",
                     "\t": "&#9;", "\n": "&#10;", "\r": "&#13;"}


class TestAttributeFastPath:
    """A value holding none of ``& < " \\t \\n \\r`` comes back as is;
    any one of them takes the escaping path, byte for byte."""

    def test_plain_value_is_returned_untouched(self):
        value = "person0 > 'x' ünïcode"
        assert escape_attribute(value) is value

    @pytest.mark.parametrize("char", list(ATTRIBUTE_ESCAPES))
    def test_each_character_alone(self, char):
        reference = ATTRIBUTE_ESCAPES[char]
        assert escape_attribute(char) == reference
        assert escape_attribute(f"a{char}b") == f"a{reference}b"

    def test_all_of_them_together(self):
        value = "x" + "".join(ATTRIBUTE_ESCAPES) + "y&amp;"
        assert escape_attribute(value) == (
            "x&amp;&lt;&quot;&#9;&#10;&#13;y&amp;amp;")
        assert unescape(escape_attribute(value)) == value


@given(st.text(alphabet=st.sampled_from("ab &<>\"'\t\n\ré"),
               max_size=40))
def test_attribute_matches_the_full_replacement_chain(text):
    expected = text
    for char, reference in ATTRIBUTE_ESCAPES.items():
        expected = expected.replace(char, reference)
    assert escape_attribute(text) == expected
