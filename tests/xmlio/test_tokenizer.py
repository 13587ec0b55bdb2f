"""Tests for the from-scratch XML tokenizer."""

import pytest

from repro.errors import XMLSyntaxError
from repro.xmlio.tokenizer import (
    CDATA,
    COMMENT,
    DOCTYPE,
    END_TAG,
    PI,
    START_TAG,
    TEXT,
    tokenize,
)


class TestBasicTokens:
    def test_simple_element(self):
        tokens = tokenize("<a>hi</a>")
        assert [kind for kind, *_ in tokens] == [START_TAG, TEXT, END_TAG]
        assert tokens[0][1] == "a"
        assert tokens[1][1] == "hi"

    def test_empty_tag(self):
        assert tokenize("<a/>") == [(START_TAG, "a", (), 0),
                                    (END_TAG, "a", (), 0)]

    def test_attributes_in_order(self):
        token, _ = tokenize('<a x="1" y="2"/>')
        assert token[2] == (("x", "1"), ("y", "2"))

    def test_single_quoted_attribute(self):
        token, _ = tokenize("<a x='v'/>")
        assert token[2] == (("x", "v"),)

    def test_attribute_entity_resolved(self):
        token, _ = tokenize('<a x="a&amp;b"/>')
        assert token[2] == (("x", "a&b"),)

    def test_text_entities(self):
        tokens = tokenize("<a>&lt;x&gt; &#65;&#x42;</a>")
        assert tokens[1][1] == "<x> AB"

    def test_comment(self):
        tokens = tokenize("<a><!-- note --></a>")
        assert tokens[1][:2] == (COMMENT, " note ")

    def test_cdata(self):
        tokens = tokenize("<a><![CDATA[<raw>&]]></a>")
        assert tokens[1][:2] == (CDATA, "<raw>&")

    def test_pi(self):
        tokens = tokenize('<?xml version="1.0"?><a/>')
        assert tokens[0][0] == PI

    def test_doctype_with_subset(self):
        tokens = tokenize('<!DOCTYPE a [<!ELEMENT a (#PCDATA)>]><a/>')
        assert tokens[0][0] == DOCTYPE
        assert tokens[1][0] == START_TAG

    def test_whitespace_in_tags(self):
        token, _ = tokenize('<a  x = "1"  />')
        assert token[0] == START_TAG
        assert token[2] == (("x", "1"),)

    def test_names_with_punctuation(self):
        tokens = tokenize("<ns:a-b.c_1/>")
        assert tokens[0][1] == "ns:a-b.c_1"

    def test_offsets(self):
        tokens = tokenize("<a> x <!--c--></a>")
        assert [offset for *_, offset in tokens] == [0, 3, 6, 14]


class TestErrors:
    @pytest.mark.parametrize("text", [
        "<a x=1/>",            # unquoted attribute
        "<a x/>",              # attribute without value
        '<a x="1>',            # unterminated value
        "<!-- never closed",
        "<![CDATA[ never closed",
        "<a",                  # unterminated tag
        "</a",                 # malformed end tag
        "<1abc/>",             # bad name start
        '<a x="a<b"/>',        # '<' inside attribute value
        '<a x="1" x="2"/>',    # duplicate attribute
        "<a>&unknown;</a>",    # unknown entity
        "<a>&amp</a>",         # unterminated entity
        "<?pi never closed",
        "<!DOCTYPE unclosed",
    ])
    def test_malformed(self, text):
        with pytest.raises(XMLSyntaxError):
            tokenize(text)

    def test_error_carries_location(self):
        with pytest.raises(XMLSyntaxError) as excinfo:
            tokenize("<a>\n<b x=1/></a>")
        assert excinfo.value.line == 2
