"""Tests for the XQueCSystem facade and workload extraction."""

import pytest

from repro.core.system import XQueCSystem, extract_workload
from repro.storage.loader import load_document
from repro.xmark.generator import generate_xmark

QUERIES = [
    'for $p in /site/people/person where $p/name/text() > "M" '
    "return $p/name/text()",
    'for $p in /site/people/person, $a in '
    "/site/closed_auctions/closed_auction "
    "where $a/buyer/@person = $p/@id return $p/name/text()",
    'for $i in /site/regions/europe/item '
    'where starts-with($i/name/text(), "gold") return $i',
]


@pytest.fixture(scope="module")
def xml_text():
    return generate_xmark(factor=0.01, seed=2)


class TestLoadWithoutWorkload:
    def test_defaults(self, xml_text):
        system = XQueCSystem.load(xml_text)
        assert system.configuration is None
        name = system.repository.container(
            "/site/people/person/name/#text")
        assert name.codec.name == "alm"

    def test_compression_factor_positive(self, xml_text):
        system = XQueCSystem.load(xml_text)
        assert 0.0 < system.compression_factor < 1.0

    def test_query_roundtrip(self, xml_text):
        system = XQueCSystem.load(xml_text)
        result = system.query(
            '/site/people/person[@id = "person0"]/name/text()')
        assert len(result.items) == 1


class TestWorkloadExtraction:
    def test_predicates_classified(self, xml_text):
        repo = load_document(xml_text)
        workload = extract_workload(QUERIES, repo)
        kinds = {p.kind for p in workload}
        assert kinds == {"eq", "ineq", "wild"}

    def test_join_produces_two_sided_predicate(self, xml_text):
        repo = load_document(xml_text)
        workload = extract_workload([QUERIES[1]], repo)
        joins = [p for p in workload if p.is_join]
        assert joins
        assert joins[0].left_path.endswith("@person")
        assert joins[0].right_path.endswith("@id")

    def test_constant_predicate_single_sided(self, xml_text):
        repo = load_document(xml_text)
        workload = extract_workload([QUERIES[0]], repo)
        assert any(not p.is_join and p.kind == "ineq" for p in workload)


class TestLoadWithWorkload:
    def test_configuration_produced(self, xml_text):
        system = XQueCSystem.load(xml_text, workload_queries=QUERIES)
        assert system.configuration is not None
        assert system.workload is not None and len(system.workload) > 0

    def test_inequality_container_gets_alm(self, xml_text):
        system = XQueCSystem.load(xml_text, workload_queries=[QUERIES[0]])
        algorithm = system.configuration.algorithm_of(
            "/site/people/person/name/#text")
        assert algorithm == "alm"

    def test_joined_containers_share_codec(self, xml_text):
        system = XQueCSystem.load(xml_text, workload_queries=[QUERIES[1]])
        config = system.configuration
        buyer = config.group_of(
            "/site/closed_auctions/closed_auction/buyer/@person")
        person = config.group_of("/site/people/person/@id")
        if buyer is not None and person is not None and buyer is person:
            c1 = system.repository.container(
                "/site/closed_auctions/closed_auction/buyer/@person")
            c2 = system.repository.container(
                "/site/people/person/@id")
            assert c1.codec is c2.codec

    def test_queries_still_correct_under_configuration(self, xml_text):
        plain = XQueCSystem.load(xml_text)
        tuned = XQueCSystem.load(xml_text, workload_queries=QUERIES)
        for query in QUERIES:
            assert plain.query(query).to_xml() == \
                tuned.query(query).to_xml()

    def test_size_report(self, xml_text):
        system = XQueCSystem.load(xml_text, workload_queries=QUERIES)
        report = system.size_report()
        assert report.total > 0
        assert report.essential < report.total


class TestFacadePassthroughs:
    def test_explain(self, xml_text):
        system = XQueCSystem.load(xml_text)
        plan = system.explain(
            'for $p in /site/people/person '
            'where $p/name/text() = "x" return $p')
        assert "ContAccess" in plan

