"""End-of-line (XML 1.0 §2.11) and attribute-value (§3.3.3)
normalization, in the parser and through load -> save -> decompress."""

import pytest

from repro.service.session import Database
from repro.storage.loader import load_document
from repro.storage.serialization import save_repository
from repro.xmlio.dom import parse
from repro.xmlio.writer import serialize


def decompressed(text: str, tmp_path) -> str:
    path = tmp_path / "doc.xqc"
    save_repository(load_document(text), path)
    return Database.open(path).session().decompress()


class TestLineEnds:
    def test_crlf_and_cr_become_newlines(self):
        assert parse("<a>x\r\ny\rz</a>").root.text() == "x\ny\nz"

    def test_in_cdata(self):
        assert parse("<a><![CDATA[x\r\ny\r]]></a>").root.text() == "x\ny\n"

    def test_referenced_carriage_return_survives(self):
        document = parse("<a>x&#13;\r\ny</a>")
        assert document.root.text() == "x\r\ny"
        assert serialize(document) == "<a>x&#13;\ny</a>"
        assert parse(serialize(document)).root.text() == "x\r\ny"


class TestAttributeValues:
    def test_whitespace_becomes_spaces(self):
        element = parse('<a b="x\ty\r\nz\rw\nv"/>').root
        assert element.attribute("b") == "x y z w v"

    def test_referenced_whitespace_survives(self):
        document = parse('<a b="x&#9;y&#10;z&#13;"/>')
        assert document.root.attribute("b") == "x\ty\nz\r"
        assert parse(serialize(document)).root.attribute("b") == "x\ty\nz\r"


class TestRoundTrip:
    @pytest.mark.parametrize("text,expected", [
        ('<a b="x\ty">x\r\ny\rz</a>', '<a b="x y">x\ny\nz</a>'),
        ("<a b='1\r\n2'><c>p\rq</c></a>", '<a b="1 2"><c>p\nq</c></a>'),
        ('<a b="&#9;">&#13;x</a>', '<a b="&#9;">&#13;x</a>'),
    ])
    def test_load_save_decompress(self, text, expected, tmp_path):
        assert decompressed(text, tmp_path) == expected
        assert serialize(parse(text)) == expected
