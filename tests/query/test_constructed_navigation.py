"""Navigating *constructed* elements (engine and Galax agree)."""

import pytest

from repro.baselines.galax import GalaxEngine
from repro.query.engine import QueryEngine
from repro.storage.loader import load_document

DOC = "<db><x><v>1</v></x><x><v>2</v></x></db>"

#: every query below navigates or counts constructed elements.
QUERIES = (
    "for $r in <a><b>hello</b></a> return $r/b/text()",
    'for $r in <a id="7"/> return $r/@id',
    "for $r in <a><b><c>x</c></b></a> return $r//c/text()",
    "let $t := <t>{for $x in /db/x return <n>{$x/v/text()}"
    "</n>}</t> return count($t/n)",
    "for $r in <a><p/><q/></a> return count($r/*)",
    "let $w := <wrap>{/db/x}</wrap> return count($w/x/v)",
)


@pytest.fixture(scope="module")
def engine():
    return QueryEngine(load_document(DOC))


class TestConstructedNavigation:
    def test_child_step_on_constructor(self, engine):
        result = engine.execute(
            "for $r in <a><b>hello</b></a> return $r/b/text()")
        assert result.items == ["hello"]

    def test_attribute_step_on_constructor(self, engine):
        result = engine.execute(
            'for $r in <a id="7"/> return $r/@id')
        assert result.items == ["7"]

    def test_descendant_step_on_constructor(self, engine):
        result = engine.execute(
            "for $r in <a><b><c>x</c></b></a> return $r//c/text()")
        assert result.items == ["x"]

    def test_let_bound_constructed_tree(self, engine):
        result = engine.execute(
            "let $t := <t>{for $x in /db/x return <n>{$x/v/text()}"
            "</n>}</t> return count($t/n)")
        assert result.items == [2.0]

    def test_wildcard_on_constructor(self, engine):
        result = engine.execute(
            "for $r in <a><p/><q/></a> return count($r/*)")
        assert result.items == [2.0]

    def test_mixed_repository_and_constructed(self, engine):
        # Repository nodes embedded in a constructor remain navigable.
        result = engine.execute(
            "let $w := <wrap>{/db/x}</wrap> return count($w/x/v)")
        assert result.items == [2.0]

    @pytest.mark.parametrize("query", QUERIES)
    def test_runs_per_binding(self, engine, query):
        """A constructed element that is navigated is built: no FLWOR
        here runs as a row plan, whose written items only the result
        reads."""
        prepared = engine.prepare(query)
        assert not any(prepared.bound.rows.values())

    def test_galax_agrees(self, engine):
        queries = [
            "for $r in <a><b>hello</b></a> return $r/b/text()",
            "let $t := <t>{for $x in /db/x return <n>{$x/v/text()}"
            "</n>}</t> return count($t/n)",
        ]
        galax = GalaxEngine(DOC)
        for query in queries:
            assert engine.execute(query).to_xml() == \
                galax.execute_to_xml(query), query
