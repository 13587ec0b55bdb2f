"""The column walk (``CompressedRepository.to_xml``) writes the XML the
DOM path writes: ``serialize(materialize_node(n))``, and for the root
``serialize(parse(xml))`` of the source, byte for byte."""

import pytest

from repro.core.system import tuned_configuration
from repro.query.context import EvaluationStats
from repro.query.engine import QueryEngine
from repro.storage.loader import load_document
from repro.xmark import generate_xmark
from repro.xmark.queries import query_text
from repro.xmlio.dom import parse
from repro.xmlio.writer import serialize

from tests.storage.test_stored_bytes import IDS, PINNED

ESCAPES = ('<r a="x&quot;y&#9;z&#10;" b="&lt;&amp;">t&#13;u<e/>v'
           '<![CDATA[<c>]]><f g=""/></r>')


def _rebuilt(repository, node_id: int = 0) -> str:
    return serialize(QueryEngine(repository).materialize_node(
        node_id, EvaluationStats()))


def _assert_identical(xml: str, repository) -> None:
    walked = repository.to_xml()
    assert walked == _rebuilt(repository)
    assert walked == serialize(parse(xml))


@pytest.mark.parametrize("generator,factor,seed,digest,size", PINNED,
                         ids=IDS)
def test_pinned_documents(generator, factor, seed, digest, size):
    xml = generator(factor, seed=seed)
    _assert_identical(xml, load_document(xml))


def test_tuned_load_reads_blob_containers():
    xml = generate_xmark(0.01, seed=42)
    configuration = tuned_configuration(
        load_document(xml), [query_text(q) for q in ("Q1", "Q14")])
    repository = load_document(xml, configuration=configuration)
    assert any(c.is_blob for c in repository.containers())
    _assert_identical(xml, repository)


def test_deep_chain():
    xml = "<a>" * 2_500 + "x" + "</a>" * 2_500
    _assert_identical(xml, load_document(xml))


def test_escapes_cdata_and_empty_attributes():
    _assert_identical(ESCAPES, load_document(ESCAPES))


@pytest.mark.parametrize("xml", [ESCAPES, generate_xmark(0.002, seed=3)],
                         ids=["escapes", "xmark"])
def test_every_subtree(xml):
    repository = load_document(xml)
    nodes = range(1, len(repository.structure))
    for node_id in list(nodes)[::max(1, len(nodes) // 60)]:
        assert repository.to_xml(node_id) == _rebuilt(repository, node_id)
