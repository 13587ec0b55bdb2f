"""Frozen query traffic: templates, and constants drawn per seed.

The texts are copies of ``repro.xmark.queries`` taken when the ledger
was defined, with each constant replaced by a ``%(slot)s``.  They live
here so that editing ``src/`` cannot change what the benchmark sends.
Slots are filled from values that exist in the generated document (read
off the XML text), so every seed's lookups find something.
"""

from __future__ import annotations

import random
import re
from collections import Counter

_DOC = 'document("auction.xml")'

TEMPLATES: dict[str, str] = {
    "Q1": f'for $b in {_DOC}/site/people/person'
          '[@id = "%(person)s"] return $b/name/text()',
    "Q2": f"for $b in {_DOC}/site/open_auctions/open_auction "
          "return <increase>{$b/bidder[1]/increase/text()}</increase>",
    "Q3": f"for $b in {_DOC}/site/open_auctions/open_auction "
          "where $b/current/text() >= 2 * $b/initial/text() "
          'return <increase first="{$b/initial/text()}" '
          'last="{$b/current/text()}"/>',
    "Q4": f"for $b in {_DOC}/site/open_auctions/open_auction "
          'where $b/bidder/personref/@person = "%(bidder)s" '
          "return <history>{$b/initial/text()}</history>",
    "Q5": f"count(for $i in {_DOC}/site/closed_auctions/closed_auction "
          "where $i/price/text() >= %(price)s return $i/price)",
    "Q6": f"for $b in {_DOC}/site/regions/* return count($b//item)",
    "Q7": f"count({_DOC}/site//description) + "
          f"count({_DOC}/site//annotation) + "
          f"count({_DOC}/site//emailaddress)",
    "Q8": f"for $p in {_DOC}/site/people/person "
          f"let $a := for $t in {_DOC}/site/closed_auctions/"
          "closed_auction where $t/buyer/@person = $p/@id return $t "
          'return <item person="{$p/name/text()}">{count($a)}</item>',
    "Q9": f"for $p in {_DOC}/site/people/person "
          f"let $a := for $t in {_DOC}/site/closed_auctions/"
          f"closed_auction, $t2 in {_DOC}/site/regions/%(region2)s/item "
          "where $t/buyer/@person = $p/@id "
          "and $t/itemref/@item = $t2/@id "
          "return <item>{$t2/name/text()}</item> "
          'return <person name="{$p/name/text()}">{$a}</person>',
    "Q10": f"for $c in {_DOC}/site/categories/category "
           'return <group category="{$c/@id}">{count('
           f"for $p in {_DOC}/site/people/person "
           "where $p/profile/interest/@category = $c/@id "
           "return $p)}</group>",
    "Q11": f"count(for $p in {_DOC}/site/people/person, "
           f"$i in {_DOC}/site/open_auctions/open_auction "
           "where $p/profile/@income > %(income_factor)s * "
           "$i/initial/text() return $p)",
    "Q13": f"for $i in {_DOC}/site/regions/%(region)s/item "
           'return <item name="{$i/name/text()}">{$i/description}</item>',
    "Q14": f"for $i in {_DOC}/site//item "
           'where contains($i/description//text(), "%(word)s") '
           "return $i/name/text()",
    "Q15": f"for $a in {_DOC}/site/closed_auctions/closed_auction/"
           "annotation/description/text "
           "return <text>{$a/text()}</text>",
    "Q16": f"for $a in {_DOC}/site/closed_auctions/closed_auction "
           'return <ref seller="{$a/seller/@person}"/>',
    "Q17": f"for $p in {_DOC}/site/people/person "
           "where empty($p/phone) "
           'return <person name="{$p/name/text()}"/>',
    "Q18": f"for $i in {_DOC}/site/open_auctions/open_auction "
           "return $i/current/text() * 0.1",
    "Q19": f"for $b in {_DOC}/site/regions/%(region)s/item "
           "let $k := $b/location/text() order by $k "
           'return <item name="{$b/name/text()}">{$k}</item>',
    "Q20": "<result>"
           f"<preferred>{{count(for $p in {_DOC}/site/people/person "
           "where $p/profile/@income >= %(income_high)s "
           "return $p)}</preferred>"
           f"<standard>{{count(for $p in {_DOC}/site/people/person "
           "where $p/profile/@income < %(income_high)s "
           "and $p/profile/@income >= %(income_low)s "
           "return $p)}</standard>"
           f"<challenge>{{count(for $p in {_DOC}/site/people/person "
           "where $p/profile/@income < %(income_low)s "
           "return $p)}</challenge>"
           f"<na>{{count(for $p in {_DOC}/site/people/person "
           "where empty($p/profile/@income) return $p)}</na>"
           "</result>",
}

#: the query text each ingest document is shipped with (wire_ratio).
WHOLE_DOCUMENT = "/*"

_REGIONS = ("africa", "asia", "australia", "europe", "namerica",
            "samerica")
#: full-text needles, in order of preference: the first one some item
#: description contains.  Not drawn per seed: how many items match
#: differs 10x between words, and the result size with it.
_WORDS = ("gold", "silver", "crown", "sword", "winter", "summer")


def draw_constants(xml: str, rng: random.Random) -> dict[str, str]:
    """Slot values for one seed, all taken from the document itself."""
    people = re.findall(r'<person id="(person\d+)"', xml)
    bidders = re.findall(r'<personref person="(person\d+)"', xml)
    items = " ".join(re.findall(r"<item id=.*?</item>", xml, re.S))
    word = next((w for w in _WORDS if f" {w} " in items), _WORDS[0])
    if not (people and bidders):
        raise ValueError("document too small to draw query constants")
    # Bidders with a single bid where there are any, so that Q4 returns
    # one auction on every seed (its cost follows its result size).
    bids = Counter(bidders)
    bidders = sorted(p for p in bids if bids[p] == 1) or sorted(bids)
    region = rng.choice(_REGIONS)
    return {
        "person": rng.choice(people),
        "bidder": rng.choice(bidders),
        "price": str(rng.randrange(36, 45)),
        "word": word,
        "region": region,
        "region2": rng.choice([r for r in _REGIONS if r != region]),
        "income_factor": str(rng.choice((40, 50, 60))),
        "income_high": str(rng.choice((90000, 100000, 110000))),
        "income_low": str(rng.choice((25000, 30000, 35000))),
    }


def query_texts(constants: dict[str, str]) -> dict[str, str]:
    """Every template with its slots filled."""
    return {name: template % constants
            for name, template in TEMPLATES.items()}
