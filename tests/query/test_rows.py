"""Join-shaped FLWORs run as columns (``RowPlan``): which FLWORs
bind one, and that what they write — XML, frames, DOM items, escaping
— is what the per-binding interpreter built, byte for byte."""

import hashlib
import json

import pytest

from repro.baselines.galax import GalaxEngine
from repro.query.context import WrittenItem
from repro.query.engine import QueryEngine
from repro.query.shipping import receive_result, ship_result
from repro.storage.loader import load_document
from repro.xmark.generator import generate_xmark
from repro.xmark.queries import XMARK_QUERIES, query_text
from repro.xmlio.dom import Element

#: sha256 of ``ship_result`` per XMark query (f 0.005, seed 42), the
#: stats header included, as the per-binding interpreter framed them
#: before row plans: a written item must ship the bytes the DOM did.
FRAME_SHA256 = {
    "Q1": "a4727c82557c5ae749f7bcf0333ef73201075ff90d91585d45aa41e6eb41f009",
    "Q2": "7d655e6189414a5cd3459cbae3762ec23b6f96b8b74334179b1177ef2971fd48",
    "Q3": "2882801824b1ac3eacd01f20580a2368b4aeb590d2601fb083d9539de807001c",
    "Q4": "d32be97c5dee2077281733f28f8ebf50c258a06d01d4ef1455c1c9e389c22d0e",
    "Q5": "bb89f6953bb9ee5bc9fab3036fec0f5a50b315ae3543c53fcb3e2b396aed7695",
    "Q6": "2c733502211a292447c7ba4ae50167149fe51463b31d67152c3b08622db33499",
    "Q7": "a629229d31a46b22a8565998c13c4f3f06c7f4b16576e14835b28d905e555172",
    "Q8": "05f8f1bc0f89944479d27fbed1d28c82acafc250c57059b2cbdc0e1282ec302f",
    "Q9": "ec0564566a31d6365f61cd4ade8084af6d9d15c9daf431c1811da91a467bd2fd",
    "Q10": "1fe5b68654f44ed51b5c9822890300522644bcdc546c608f09dd0ca64e40024d",
    "Q11": "a7c542042683547e3454d53315970157cfa4e575198d9f3b046430764cf1ad67",
    "Q13": "2f9ff621014f86843140a32a5839099690e595afcac39c63139c3e536d4616e3",
    "Q14": "9eb848d8a766c4f0ece0ba5b0f63263a377dbb0649e02b53ac10f05c977f7651",
    "Q15": "67b787a8f21f95ddc3a6aceed6077db2eb24bf841e0e7bb939876fcfafc9bda6",
    "Q16": "88db7d5cc64d8129789b1e0cbc2647c6d23b4cfdb921fce9374c924cc65e01ee",
    "Q17": "71e3c6de6d68b5454d308ebc9e124439ef692d0e83c8e207171269addebdb4ed",
    "Q18": "91eed699403760b4a29552f37ea462d8ed273bd9895dabb893d732e6915e80ad",
    "Q19": "537780b8af557105a20cf92894bd80c0a692a89c4df617c4a074576bc833e66c",
    "Q20": "efc8dc7b41bce5bfe260ac7207970e23e2e5599dca27bf1002ef163f352370a8",
}

#: per XMark query, outermost first, whether each FLWOR binds a row
#: plan on a default load.  Q18 (arithmetic return) and Q19 (``order
#: by``) run per binding; Q9's inner FLWOR writes a constructor where
#: nothing but the outer template reads it, so only the outer plan
#: (which folds it in) is bound.
ROW_FLWORS = {
    "Q1": [True], "Q2": [True], "Q3": [True], "Q4": [True],
    "Q5": [True], "Q6": [True], "Q7": [], "Q8": [True, True],
    "Q9": [True, False], "Q10": [True, True], "Q11": [True],
    "Q13": [True], "Q14": [True], "Q15": [True], "Q16": [True],
    "Q17": [True], "Q18": [False], "Q19": [False],
    "Q20": [True, True, True, True],
}

#: sha256 (first 16 hex digits) of :func:`shape` over ``items`` (f
#: 0.01, seed 5), as the per-binding interpreter's DOM gave them.
ITEM_SHAPES = {"Q8": "c70a10b7ba0d98a7", "Q9": "049cca7270beede2",
               "Q10": "9a627769bb385f00", "Q13": "1dcf2b6444e87757"}


def shape(node):
    """An item's name, attributes and child texts, recursively."""
    if not isinstance(node, Element):
        return node
    return [node.name, [[a.name, a.value] for a in node.attributes],
            [child.value if not isinstance(child, Element)
             else shape(child) for child in node.children]]


@pytest.fixture(scope="module")
def small():
    return QueryEngine(load_document(generate_xmark(0.005, seed=42)))


@pytest.mark.parametrize("query_id", sorted(XMARK_QUERIES))
def test_frames_stay_byte_identical(small, query_id):
    frame = ship_result(small.execute(query_text(query_id)))
    assert hashlib.sha256(frame).hexdigest() == FRAME_SHA256[query_id]


@pytest.mark.parametrize("query_id", sorted(XMARK_QUERIES))
def test_row_plan_coverage(small, query_id):
    """A silent fall back to per binding fails here."""
    prepared = small.prepare(query_text(query_id))
    assert [prepared.bound.rows.get(id(plan.flwor)) is not None
            for plan in prepared.plan.flwors] == ROW_FLWORS[query_id]


@pytest.mark.parametrize("query_id", sorted(ITEM_SHAPES))
def test_items_equal_the_dom(query_id):
    engine = QueryEngine(load_document(generate_xmark(0.01, seed=5)))
    result = engine.execute(query_text(query_id))
    assert result._raw_items and all(
        isinstance(item, WrittenItem) for item in result._raw_items)
    items = [shape(item) for item in result.items]
    digest = hashlib.sha256(json.dumps(
        items, ensure_ascii=False).encode()).hexdigest()[:16]
    assert digest == ITEM_SHAPES[query_id]
    assert result.to_xml() == "\n".join(result.values())


ESCAPES = ('<r><p a="x&amp;y&lt;z&quot;w&#9;t&#10;n">'
           "t&amp;u&lt;v&gt;w&#13;z</p><p/></r>")


def test_slots_escape_like_the_serializer():
    """``& < " \\t \\n`` in an attribute slot and ``& < > \\r`` in a text
    slot, written from the template as the DOM serialized them."""
    query = ('for $p in /r/p return <o a="{$p/@a}" b="{$p/text()}">'
             "{$p/@a}{$p/text()}</o>")
    engine = QueryEngine(load_document(ESCAPES))
    prepared = engine.prepare(query)
    assert [rows is not None
            for rows in prepared.bound.rows.values()] == [True]
    result = engine.execute(query)
    expected = ('<o a="x&amp;y&lt;z&quot;w&#9;t&#10;n" '
                'b="t&amp;u&lt;v>w&#13;z">x&amp;y&lt;z"w\tt\nn'
                "t&amp;u&lt;v&gt;w&#13;z</o>\n"
                '<o a="" b=""/>')
    assert result.to_xml() == expected
    assert GalaxEngine(ESCAPES).execute_to_xml(query) == expected
    assert "\n".join(receive_result(ship_result(
        engine.execute(query))).values) == expected
    assert result.items[0].attribute("a") == "x&y<z\"w\tt\nn"


#: probe values a theta join cannot order by position: infinite, not a
#: number (NaN orders against nothing), text, missing.
PROBES = ('<s><p i="inf" n="a"/><p i="5" n="b"/><p i="x" n="c"/>'
          '<p n="d"/><p i="-Infinity" n="e"/><p i="nan" n="f"/>'
          "<a><v>1</v></a><a><v>2</v></a><a><v>3</v></a></s>")


@pytest.mark.parametrize("query", [
    "count(for $p in /s/p, $a in /s/a where $p/@i > 2 * $a/v/text() "
    "return $p)",
    "for $p in /s/p, $a in /s/a where $p/@i >= 2 * $a/v/text() "
    'return <r p="{$p/@n}">{$a/v/text()}</r>',
    'for $p in /s/p return <o n="{$p/@n}">{count(for $a in /s/a '
    "where 2 * $a/v/text() <= $p/@i return $a)}</o>",
])
def test_theta_rows_fall_back_per_row(query):
    """A row whose probe is no finite number checks its candidates per
    binding, as the nested loop does; the others probe by position."""
    engine = QueryEngine(load_document(PROBES))
    rows = engine.prepare(query).bound.rows.values()
    assert rows and all(plan is not None for plan in rows)
    assert engine.execute(query).to_xml() == \
        GalaxEngine(PROBES).execute_to_xml(query)


GROUPS = ('<s><p i="40"><t/><t/></p><p i="5"><t/></p><p i="x"/>'
          "<a><v>1</v><w/></a><a><v>2</v><w/><w/></a><a><v>3</v></a></s>")


@pytest.mark.parametrize("query", [
    "count(for $p in /s/p, $a in /s/a where $p/@i > 2 * $a/v/text() "
    "return $a/w)",
    "count(for $p in /s/p, $a in /s/a where $p/@i > 2 * $a/v/text() "
    "return $p/t)",
    "for $p in /s/p return count(for $a in /s/a "
    "where 2 * $a/v/text() < $p/@i return $a/w)",
])
def test_counts_are_group_sizes(query):
    """``count`` of a row plan returning a projected path: the path's
    group sizes over the last clause's matches, never expanded."""
    engine = QueryEngine(load_document(GROUPS))
    assert all(plan is not None
               for plan in engine.prepare(query).bound.rows.values())
    assert engine.execute(query).to_xml() == \
        GalaxEngine(GROUPS).execute_to_xml(query)
