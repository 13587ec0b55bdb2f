"""Multi-document collections: document("name") selects and joins."""

import pytest

from repro.baselines.galax import GalaxEngine
from repro.core.system import XQueCSystem
from repro.obs.telemetry import Telemetry
from repro.query.optimizer import plan_query
from repro.query.physical import ContScan
from repro.query.options import ExecutionOptions
from repro.query.parser import parse_query
from repro.query.engine import QueryEngine
from repro.storage.loader import load_document

PEOPLE = """
<people>
  <person id="p0"><name>Alice</name><city>Paris</city></person>
  <person id="p1"><name>Bob</name><city>Lyon</city></person>
</people>
"""

ORDERS = """
<orders>
  <order buyer="p1"><total>10</total></order>
  <order buyer="p0"><total>25</total></order>
  <order buyer="p0"><total>5</total></order>
</orders>
"""

JOIN_QUERY = (
    'for $p in document("people.xml")/people/person, '
    '$o in document("orders.xml")/orders/order '
    "where $o/@buyer = $p/@id "
    'return <sale who="{$p/name/text()}">{$o/total/text()}</sale>')


def _scans(node) -> list:
    """The ``ContScan`` operators of a plan tree."""
    if isinstance(node, ContScan):
        return [node]
    return [scan for child in node.inputs() for scan in _scans(child)]


@pytest.fixture(scope="module")
def system():
    return XQueCSystem.load_collection(
        {"people.xml": PEOPLE, "orders.xml": ORDERS})


class TestDocumentDispatch:
    def test_named_document_selected(self, system):
        result = system.query(
            'document("orders.xml")/orders/order/total/text()')
        assert sorted(result.items) == ["10", "25", "5"]

    def test_default_document_for_bare_paths(self, system):
        result = system.query("/people/person/name/text()")
        assert result.items == ["Alice", "Bob"]

    def test_unknown_document_falls_back_to_default(self, system):
        result = system.query(
            'document("ghost.xml")/people/person/name/text()')
        assert result.items == ["Alice", "Bob"]


class TestCrossDocumentJoin:
    def test_join_across_documents(self, system):
        result = system.query(JOIN_QUERY)
        xml = result.to_xml()
        assert xml.count("<sale") == 3
        assert 'who="Alice"' in xml and 'who="Bob"' in xml

    def test_join_uses_hash_index(self, system):
        """The equality runs as one MergeJoin on the key containers,
        each side scanned in its own document's repository."""
        telemetry = Telemetry()
        traced = system.query(JOIN_QUERY,
                              ExecutionOptions(telemetry=telemetry))
        assert traced.to_xml() == system.query(JOIN_QUERY).to_xml()
        assert telemetry.operator_profile()["MergeJoin"]["count"] == 1
        assert traced.stats.container_scans == 2
        assert traced.stats.hash_joins == 0
        engine = system.session.engine
        (flwor,) = plan_query(parse_query(JOIN_QUERY)).flwors
        _, join = flwor.clauses[1].bind_join(engine.repository_of)
        people, orders = (scan.container for side in join.inputs()
                          for scan in _scans(side))
        assert people is engine.repository_of(
            "people.xml").container("/people/person/@id")
        assert orders is engine.repository_of(
            "orders.xml").container("/orders/order/@buyer")

    def test_galax_agrees(self, system):
        galax = GalaxEngine(PEOPLE, collection={"people.xml": PEOPLE,
                                                "orders.xml": ORDERS})
        assert system.query(JOIN_QUERY).to_xml() == \
            galax.execute_to_xml(JOIN_QUERY)

    def test_materialization_uses_right_document(self, system):
        result = system.query(
            'document("orders.xml")/orders/order[1]')
        xml = result.to_xml()
        assert xml == '<order buyer="p1"><total>10</total></order>'

    def test_range_plan_on_named_document(self, system):
        result = system.query(
            'for $o in document("orders.xml")/orders/order '
            "where $o/total/text() >= 10 return $o/@buyer")
        assert sorted(result.items) == ["p0", "p1"]


class TestEngineConstruction:
    def test_repository_of(self):
        people_repo = load_document(PEOPLE)
        orders_repo = load_document(ORDERS)
        engine = QueryEngine(people_repo,
                             collection={"o": orders_repo})
        assert engine.repository_of("o") is orders_repo
        assert engine.repository_of(None) is people_repo
        assert engine.repository_of("nope") is people_repo

    def test_empty_collection_rejected(self):
        with pytest.raises(ValueError):
            XQueCSystem.load_collection({})

    def test_default_selection(self):
        system = XQueCSystem.load_collection(
            {"a": PEOPLE, "b": ORDERS}, default="b")
        assert system.query("/orders/order/total/text()").items == \
            ["10", "25", "5"]
