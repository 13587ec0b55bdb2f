"""``contains`` decided on the positional q-gram index.

A ``contains`` term with a needle of at least q characters is exact:
``ContSubstring`` emits exactly the values holding the needle and
``FirstHit`` keeps the owners whose *first* value (``contains`` reads
the first item of its sequence) is one of them, so nothing is decoded
to decide it.  Answers are checked against the decompress-first
reference, counts against what the plan promises.
"""

import pytest

from repro.baselines.galax import GalaxEngine
from repro.query.engine import QueryEngine
from repro.storage.loader import load_document
from repro.xmark.generator import generate_xmark
from repro.xmark.queries import query_text

DOC = ("<r>"
       # a: the needle in the first text, below a child of t.
       '<item id="a"><d><t><b>gold</b> plain</t></d></item>'
       # b: mixed content: the first text is "plain ", the needle later.
       '<item id="b"><d><t>plain <b>gold</b></t></d></item>'
       # c, d: two texts of one element name, the needle first or not.
       '<item id="c"><d><t>gold</t><t>tin</t></d></item>'
       '<item id="d"><d><t>tin</t><t>gold</t></d></item>'
       # e holds f below an x: f's d is no d of e.
       '<item id="e"><x><item id="f"><d><t>gold</t></d></item></x></item>'
       # g: attributes, the first m's "tin"; h: the first m's "gold".
       '<item id="g"><m k="tin"/><m k="gold"/></item>'
       '<item id="h"><m k="gold"/><m k="tin"/></item>'
       # i: the q-grams of "goldgold" are all in "gold old", in order
       # nowhere; j: one value, "gggg" holds "ggg" twice over.
       '<item id="i"><d><t>gold old</t></d></item>'
       '<item id="j" k="ggg"><d><t>gggg</t></d></item>'
       "</r>")


@pytest.mark.parametrize("where,expected", [
    ('contains($v/d//text(), "gold")', "a c f i"),
    ('contains($v/d/t/text(), "gold")', "c f i"),
    # e's first text is f's: below e, if not below a d of e.
    ('contains($v//text(), "gold")', "a c e f i"),
    ('contains($v/m/@k, "gold")', "h"),
    ('contains($v/d//text(), "goldgold")', ""),
    ('contains($v/d//text(), "gggg")', "j"),
    ('contains($v/@k, "gggg")', ""),
    ('contains($v/d//text(), "old")', "a c f i"),
])
def test_first_value_decides_like_the_reference(where, expected):
    repository = load_document(DOC)
    queries = [f"for $v in //item where {where} return $v/@id"]
    if "$v//" not in where:  # as a step predicate (no "." to start at)
        queries.append(f"for $v in //item[{where.replace('$v/', '')}] "
                       "return $v/@id")
    for query in queries:
        result = QueryEngine(repository).execute(query)
        # Decided on the containers: no value decoded to decide it.
        assert result.stats.container_accesses > 0, query
        assert result.stats.decompressions == 0, query
        assert result.items == expected.split(), query
        assert result.to_xml() == GalaxEngine(DOC).execute_to_xml(query)


@pytest.fixture(scope="module")
def xmark():
    return load_document(generate_xmark(0.05, seed=42))


def test_q14_decodes_only_its_result_names(xmark):
    result = QueryEngine(xmark).execute(query_text("Q14"))
    assert len(result.items) == 42
    assert result.stats.decompressions == 42


def test_description_indexes_fit_in_a_megabyte(xmark):
    QueryEngine(xmark).execute(query_text("Q14")).items
    indexed = [c for c in xmark.containers()
               if c._substring_index is not None]
    assert len(indexed) == 6
    assert all("/item/description/" in c.path for c in indexed)
    assert sum(c.substring_index().nbytes for c in indexed) <= 1_000_000
