"""Multi-document collections: document("name") selects and joins."""

import pytest

from repro.baselines.galax import GalaxEngine
from repro.obs.telemetry import Telemetry
from repro.query.physical import ContScan
from repro.query.options import ExecutionOptions
from repro.query.engine import QueryEngine
from repro.service.session import Database
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
def session():
    repositories = {"people.xml": load_document(PEOPLE),
                    "orders.xml": load_document(ORDERS)}
    return Database(repositories["people.xml"], repositories).session()


class TestDocumentDispatch:
    def test_named_document_selected(self, session):
        result = session.execute(
            'document("orders.xml")/orders/order/total/text()')
        assert sorted(result.items) == ["10", "25", "5"]

    def test_default_document_for_bare_paths(self, session):
        result = session.execute("/people/person/name/text()")
        assert result.items == ["Alice", "Bob"]

    def test_unknown_document_falls_back_to_default(self, session):
        result = session.execute(
            'document("ghost.xml")/people/person/name/text()')
        assert result.items == ["Alice", "Bob"]


class TestCrossDocumentJoin:
    def test_join_across_documents(self, session):
        result = session.execute(JOIN_QUERY)
        xml = result.to_xml()
        assert xml.count("<sale") == 3
        assert 'who="Alice"' in xml and 'who="Bob"' in xml

    def test_join_uses_hash_index(self, session):
        """The equality runs as one MergeJoin on the key containers,
        each side scanned in its own document's repository."""
        telemetry = Telemetry()
        traced = session.execute(JOIN_QUERY,
                                ExecutionOptions(telemetry=telemetry))
        assert traced.to_xml() == session.execute(JOIN_QUERY).to_xml()
        assert telemetry.operator_profile()["MergeJoin"]["count"] == 1
        assert traced.stats.container_scans == 2
        engine = session.engine
        prepared = engine.prepare(JOIN_QUERY)
        (flwor,) = prepared.plan.flwors
        _, join = prepared.bound.clauses[id(flwor.clauses[1])].join
        people, orders = (scan.container for side in join.inputs()
                          for scan in _scans(side))
        assert people is engine.repository_of(
            "people.xml").container("/people/person/@id")
        assert orders is engine.repository_of(
            "orders.xml").container("/orders/order/@buyer")

    def test_galax_agrees(self, session):
        galax = GalaxEngine(PEOPLE, collection={"people.xml": PEOPLE,
                                                "orders.xml": ORDERS})
        assert session.execute(JOIN_QUERY).to_xml() == \
            galax.execute_to_xml(JOIN_QUERY)

    def test_materialization_uses_right_document(self, session):
        result = session.execute(
            'document("orders.xml")/orders/order[1]')
        xml = result.to_xml()
        assert xml == '<order buyer="p1"><total>10</total></order>'

    def test_range_plan_on_named_document(self, session):
        result = session.execute(
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

    def test_default_selection(self):
        repositories = {"a": load_document(PEOPLE),
                        "b": load_document(ORDERS)}
        session = Database(repositories["b"], repositories).session()
        assert session.execute("/orders/order/total/text()").items == \
            ["10", "25", "5"]
