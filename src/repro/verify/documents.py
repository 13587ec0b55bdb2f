"""XMark-ish document generation for the engine oracle.

Documents are generated as an *entity list* first and rendered to XML
second, so the minimizer can drop entities and re-render: a mismatch
shrinks to the fewest people/items/auctions that still reproduce it.

The value distributions are chosen to hit every engine path the sweep
exercises: string containers with shared prefixes, empty and non-ASCII
values (ALM/Huffman ``eq``/``wild``), pure-int and pure-float
containers (numeric codecs, ``ContAccess`` over numeric order), a
*mixed* int/float container (the type-inference edge), join keys
between auctions and people, owners with several values or none
(``interest/@category``, repeats and any order included), categories
whose ids repeat and whose document order is not their key order
(equality joins must bind each node once, in document order), items
nested in items (``//item`` reaches two container paths with the same
leaf steps) and descriptions holding a ``note`` or a description of
their own (several text nodes below one element; a text below two
elements of one name).
"""

from __future__ import annotations

import random

_NAMES = ("ada", "ada", "adam", "bob", "bo", "eve", "evelyn", "",
          "rené", "andré", "Åsa", "小林", "mallory")
_CITIES = ("rome", "roma", "oslo", "kiev", "kyoto", "", "lyon")
_WORDS = ("gold", "golden", "silver", "old", "bold", "rare", "rarely",
          "fine", "antique", "brass")
CATEGORIES = ("c1", "c10", "c2", "c7")


def generate_entities(rng: random.Random, scale: int = 10) -> dict:
    """Entity lists for one document; deterministic in ``rng``."""
    people = []
    for index in range(max(2, scale)):
        people.append({
            "id": f"p{index}",
            "name": rng.choice(_NAMES),
            "age": str(rng.choice((5, 7, 9, 10, 12, 31, 47,
                                   rng.randint(0, 99)))),
            "city": rng.choice(_CITIES),
            # Canonical float texts: a pure-float container.
            "income": repr(rng.choice((0.5, 9.25, 100.5, 1200.75,
                                       round(rng.uniform(0, 5e4), 2)))),
            "interests": rng.choices(CATEGORIES, k=rng.choice(
                (0, 0, 1, 2, 3))),
        })
    items = []
    for index in range(max(1, scale // 2)):
        words = rng.sample(_WORDS, k=rng.randint(1, 4))
        items.append({
            "id": f"i{index}",
            "name": rng.choice(_WORDS),
            "description": " ".join(words),
            # Every third item carries a part: an item inside an item.
            "part": rng.choice(_WORDS) if index % 3 == 0 else None,
            # Text nodes after the description's first, in an element
            # of another name and in one of its own.
            "note": rng.choice(_WORDS) if index % 2 else None,
            "inner": " ".join(rng.sample(_WORDS, k=2))
            if index % 4 < 2 else None,
        })
    auctions = []
    for index in range(max(1, scale // 2)):
        # price mixes int and float text shapes on purpose (the
        # container must stay string-typed and still answer queries).
        price = rng.choice((str(rng.randint(1, 999)),
                            repr(round(rng.uniform(1, 999), 1))))
        auctions.append({
            "buyer": rng.choice(people)["id"],
            "item": rng.choice(items)["id"],
            "price": price,
            "quantity": str(rng.randint(1, 9)),
        })
    # Document order is not key order, and an id may repeat.
    categories = [{"id": category, "name": rng.choice(_WORDS)}
                  for category in CATEGORIES]
    rng.shuffle(categories)
    if rng.random() < 0.5:
        categories.append(dict(rng.choice(categories)))
    return {"people": people, "items": items, "auctions": auctions,
            "categories": categories}


def entity_list(entities: dict) -> list[tuple[str, dict]]:
    """Flatten to (kind, record) pairs — the minimizer's item list."""
    return ([("person", p) for p in entities["people"]] +
            [("item", i) for i in entities["items"]] +
            [("auction", a) for a in entities["auctions"]] +
            [("category", c) for c in entities["categories"]])


def from_entity_list(pairs: list[tuple[str, dict]]) -> dict:
    """Inverse of :func:`entity_list` (minimized subsets included)."""
    return {
        "people": [r for kind, r in pairs if kind == "person"],
        "items": [r for kind, r in pairs if kind == "item"],
        "auctions": [r for kind, r in pairs if kind == "auction"],
        "categories": [r for kind, r in pairs if kind == "category"],
    }


def render_xml(entities: dict) -> str:
    """Render the entity lists as one XMark-flavoured document."""
    parts = ["<site><people>"]
    for person in entities["people"]:
        parts.append(
            f'<person id="{person["id"]}">'
            f'<name>{person["name"]}</name>'
            f'<age>{person["age"]}</age>'
            f'<city>{person["city"]}</city>'
            f'<income>{person["income"]}</income>'
            + "".join(f'<interest category="{category}"/>'
                      for category in person["interests"])
            + '</person>')
    parts.append("</people><regions>")
    for item in entities["items"]:
        parts.append(
            f'<item id="{item["id"]}">'
            f'<name>{item["name"]}</name>'
            f'<description>{item["description"]}'
            + (f'<note>{item["note"]}</note>' if item["note"] else "")
            + (f'<description>{item["inner"]}</description>'
               if item["inner"] else "") + '</description>'
            + (f'<item id="{item["id"]}p"><name>{item["part"]}</name>'
               '</item>' if item["part"] is not None else "")
            + '</item>')
    parts.append("</regions><closed_auctions>")
    for auction in entities["auctions"]:
        parts.append(
            f'<auction><buyer>{auction["buyer"]}</buyer>'
            f'<itemref>{auction["item"]}</itemref>'
            f'<price>{auction["price"]}</price>'
            f'<quantity>{auction["quantity"]}</quantity>'
            f'</auction>')
    parts.append("</closed_auctions><categories>")
    for category in entities["categories"]:
        parts.append(f'<category id="{category["id"]}">'
                     f'<name>{category["name"]}</name></category>')
    parts.append("</categories></site>")
    return "".join(parts)
