"""Query-template generation for the engine oracle.

Templates cover every compressed-domain decision the engine makes:
point equality and range predicates with *numeric* and with *string*
constants, over string and numeric containers (each combination picks
a different fast path or fallback); variable-to-variable comparisons
under one shared source model; ``starts-with`` (the ``wild``
predicate) at arbitrary codeword boundaries; joins; aggregates over
numeric and mixed containers; ``order by``; ``distinct-values`` across
containers; theta joins with a scaled side (``ThetaJoin`` and its
fallbacks); equality joins between two variables (``MergeJoin`` on
the key containers: ``let``-nested and same-FLWOR, either side first,
multi-valued and repeated keys, keys whose containers refuse, a probe
variable shadowed or bound again); constant selections decided on the
containers alone
(``assign_selection``: one to three conjuncts, step predicates,
``empty`` / ``not(empty)``, ``//`` sources over nested elements, owners
with several values, ``count`` of the bindings; ``contains`` /
``word-contains`` as ``substring`` terms — ``//`` leaf paths, needles
of any length and case, candidates the re-check must reject).
Constants are drawn from the document's own value pools plus
adversarial neighbours (absent values, fractional bounds over int
containers, the empty string, the same number spelt as text, values
beyond either end of a container).
"""

from __future__ import annotations

import random

from repro.verify.documents import CATEGORIES


def _pools(entities: dict) -> dict[str, list[str]]:
    people = entities["people"]
    items = entities["items"]
    auctions = entities["auctions"]
    names = [p["name"] for p in people] or [""]
    ages = [p["age"] for p in people] or ["0"]
    cities = [p["city"] for p in people] or [""]
    prices = [a["price"] for a in auctions] or ["1"]
    descriptions = [i["description"] for i in items] or ["gold"]
    return {"names": names, "ages": ages, "cities": cities,
            "prices": prices, "descriptions": descriptions,
            "ids": [p["id"] for p in people] or ["p0"],
            "incomes": [p["income"] for p in people] or ["1.5"],
            "quantities": [a["quantity"] for a in auctions] or ["1"],
            "categories": list(CATEGORIES) + ["c3"],
            "words": [i["name"] for i in items] or ["gold"],
            "item_ids": [i["id"] for i in items] or ["i0"]}


def _string_constant(rng: random.Random, pool: list[str]) -> str:
    choice = rng.random()
    if choice < 0.5:
        return rng.choice(pool)
    if choice < 0.65:
        return ""
    if choice < 0.8:
        base = rng.choice(pool)
        return base[:max(len(base) - 1, 0)] + "z"   # absent neighbour
    return rng.choice(pool)[:2]                      # shared prefix


def _number_constant(rng: random.Random, pool: list[str]) -> str:
    base = rng.choice(pool)
    try:
        anchor = float(base)
    except ValueError:
        anchor = 10.0
    choice = rng.random()
    if choice < 0.4:
        return base                          # exact endpoint
    if choice < 0.7:
        return repr(anchor + 0.5)            # fractional over ints
    return str(int(anchor) + rng.choice((-3, 7)))


_OPS = ("=", "!=", "<", "<=", ">", ">=")


def _theta_join(rng: random.Random) -> str:
    """``X OP K * Y`` between a person and an auction, either clause
    order.  ``income`` (float) and ``quantity`` (int) take the
    sort-based join as scaled or plain side; ``price`` mixes text
    shapes, stays string-typed and falls back."""
    plain, scaled = rng.choice((
        ("$p/income/text()", "$a/price/text()"),
        ("$a/quantity/text()", "$p/income/text()")))
    factor = rng.choice((str(rng.randint(1, 60)),
                         repr(round(rng.uniform(0.01, 2.0), 2)),
                         "0", str(-rng.randint(1, 9))))
    sides = [plain, f"{factor} * {scaled}"]
    clauses = ["$p in /site/people/person",
               "$a in /site/closed_auctions/auction"]
    rng.shuffle(sides)
    rng.shuffle(clauses)
    flwor = (f"for {clauses[0]}, {clauses[1]} where {sides[0]} "
             f'{rng.choice(("<", "<=", ">", ">="))} {sides[1]} return ')
    if rng.random() < 0.5:
        return f"count({flwor}$p)"
    return flwor + "$a/quantity/text()"


#: equality-join subjects: source and a per-binding result.
_JOIN_SUBJECTS = {
    "person": ("/site/people/person", "@id"),
    "category": ("/site/categories/category", "name/text()"),
    "auction": ("/site/closed_auctions/auction", "quantity/text()"),
    "item": ("//item", "@id"),
}

#: key paths of two subjects that share values: a multi-valued key,
#: text against attributes, a ``//`` source over nested items, equal
#: words in two containers, int containers (refused: checked per
#: binding).
_JOIN_KEYS = (
    ("person", "interest/@category", "category", "@id"),
    ("auction", "buyer/text()", "person", "@id"),
    ("auction", "itemref/text()", "item", "@id"),
    ("category", "name/text()", "item", "name/text()"),
    ("auction", "quantity/text()", "person", "age/text()"),
)


def _equi_join(rng: random.Random) -> str:
    """``$x/key = $y/key`` between two subjects, either operand order,
    either subject outside: ``let``-nested (XMark Q8), one FLWOR (Q9),
    counted (Q10), under an outer ``for`` of the probe's name, and
    with the probe's name bound again after the join's clause."""
    outer, outer_key, inner, inner_key = rng.choice(_JOIN_KEYS)
    if rng.random() < 0.5:
        outer, outer_key, inner, inner_key = \
            inner, inner_key, outer, outer_key
    (x, _), (y, result) = _JOIN_SUBJECTS[outer], _JOIN_SUBJECTS[inner]
    sides = [f"$x/{outer_key}", f"$y/{inner_key}"]
    rng.shuffle(sides)
    where = f"where {sides[0]} = {sides[1]}"
    return rng.choice((
        f"for $x in {x} let $a := for $y in {y} {where} return $y "
        "return <n>{count($a)}</n>",
        f"for $x in {x}, $y in {y} {where} return $y/{result}",
        f"for $x in {x} return count(for $y in {y} {where} return $y)",
        f"for $x in {y} return <r>{{for $x in {x}, $y in {y} {where} "
        f"return $y/{result}}}</r>",
        f"for $x in {y}, $y in {y}, $x in {x} {where} "
        f"return $y/{result}"))


#: per selection subject: sources, a per-binding result, and the value
#: leaves with the pool their constants come from.
_SUBJECTS = (
    (("/site/people/person", "//person", "/site//person"), "@id",
     (("@id", "ids"), ("name/text()", "names"), ("age/text()", "ages"),
      ("income/text()", "incomes"), ("city/text()", "cities"),
      ("interest/@category", "categories"))),
    (("/site/closed_auctions/auction", "//auction"), "quantity/text()",
     (("price/text()", "prices"), ("quantity/text()", "quantities"),
      ("buyer/text()", "ids"))),
    # Items nest: //item reaches /site/regions/item and .../item/item.
    (("//item", "/site/regions//item", "/site/regions/item"), "@id",
     (("name/text()", "words"), ("@id", "item_ids"),
      ("description/text()", "descriptions"))),
    # So do descriptions: a text below the inner one is below both.
    (("//description", "/site/regions/item/description"), "text()",
     (("text()", "descriptions"), ("note/text()", "words"),
      ("description/text()", "descriptions"))),
)


def _substring_term(rng: random.Random, start: str, leaf: str,
                    pools: dict) -> str:
    """``contains`` / ``word-contains`` over ``leaf``, its ``//`` form
    or every text below the variable, against 0-6 characters cut from
    the item texts at a random offset, sometimes in another case."""
    paths = [start + leaf]
    if leaf.endswith("/text()"):
        paths.append(start + leaf[:-len("/text()")] + "//text()")
    if start:
        paths.append(start.rstrip("/") + "//text()")
    base = rng.choice(pools["descriptions"] + pools["words"])
    at = rng.randrange(len(base) + 1)
    needle = base[at:at + rng.randint(0, 6)]
    if rng.random() < 0.3:
        needle = "".join(rng.choice((c, c.upper())) for c in needle)
    return (f'{rng.choice(("contains", "word-contains"))}('
            f'{rng.choice(paths)}, "{needle}")')


def _selection_constant(rng: random.Random, pool: list[str]) -> str:
    """A constant as a number, as text, or as another spelling of the
    same number (``7`` / ``"7"`` / ``"07"`` / ``7.0``; ``100.5`` /
    ``"100.50"``); absent values and both ends of the range included."""
    base = rng.choice(pool)
    try:
        number = float(base)
    except ValueError:
        return f'"{_string_constant(rng, pool)}"'
    numbers = [float(v) for v in pool]
    number = rng.choice((number, number, number, number + 0.5,
                         min(numbers) - 1, max(numbers) + 1))
    text = str(int(number)) if number == int(number) else repr(number)
    return rng.choice((text, text, f'"{text}"', f'"0{text}"',
                       f"{text}0" if "." in text else f"{text}.0",
                       f'"{text}0"' if "." in text else f'"{base}"'))


def _selection(rng: random.Random, pools: dict) -> str:
    """A for-clause whose where / last-step predicates are constant
    selections on one variable, sometimes beside a conjunct that is
    not, returning a value per binding or the count of the bindings."""
    sources, result, leaves = rng.choice(_SUBJECTS)

    def term(start: str) -> str:
        leaf, pool = rng.choice(leaves)
        choice = rng.random()
        if choice < 0.15:
            return f"empty({start}{leaf})"
        if choice < 0.25:
            return f"not(empty({start}{leaf}))"
        if choice < 0.4:
            return _substring_term(rng, start, leaf, pools)
        sides = [start + leaf, _selection_constant(rng, pools[pool])]
        rng.shuffle(sides)
        return f"{sides[0]} {rng.choice(_OPS)} {sides[1]}"

    source = rng.choice(sources) + "".join(
        f"[{term('')}]" for _ in range(rng.choice((0, 0, 0, 1, 2))))
    where = " and ".join(term("$v/")
                         for _ in range(rng.choice((0, 1, 1, 2, 3))))
    flwor = f"for $v in {source}" + (f" where {where}" if where else "")
    if rng.random() < 0.4:
        return f"count({flwor} return $v)"
    return f"{flwor} return $v/{result}"


def generate_queries(entities: dict, rng: random.Random,
                     count: int) -> list[str]:
    """``count`` template instantiations for one document."""
    pools = _pools(entities)
    queries: list[str] = []
    makers = (
        lambda: (f'for $p in /site/people/person where '
                 f'$p/age/text() {rng.choice(_OPS)} '
                 f'{_number_constant(rng, pools["ages"])} '
                 f'return $p/@id'),
        lambda: (f'for $p in /site/people/person where '
                 f'$p/age/text() {rng.choice(_OPS)} '
                 f'"{_string_constant(rng, pools["ages"])}" '
                 f'return $p/@id'),
        lambda: (f'for $p in /site/people/person where '
                 f'$p/name/text() {rng.choice(_OPS)} '
                 f'"{_string_constant(rng, pools["names"])}" '
                 f'return $p/@id'),
        lambda: (f'for $a in /site/closed_auctions/auction where '
                 f'$a/price/text() {rng.choice(_OPS)} '
                 f'{_number_constant(rng, pools["prices"])} '
                 f'return $a/quantity/text()'),
        lambda: (f'for $p in /site/people/person where '
                 f'$p/income/text() {rng.choice(_OPS)} '
                 f'{_number_constant(rng, pools["ages"])} '
                 f'return $p/@id'),
        lambda: (f'/site/people/person[starts-with(name/text(), '
                 f'"{_string_constant(rng, pools["names"])}")]/@id'),
        lambda: (f'count(/site/regions/item[contains('
                 f'description/text(), '
                 f'"{_string_constant(rng, pools["descriptions"])[:4]}"'
                 f')])'),
        lambda: ('for $a in /site/people/person '
                 'for $b in /site/people/person where '
                 f'$a/name/text() {rng.choice(("<", "<=", "=", ">"))} '
                 '$b/name/text() return $a/@id'),
        lambda: ('for $a in /site/people/person '
                 'for $b in /site/people/person where '
                 f'$a/age/text() {rng.choice(("<", ">="))} '
                 '$b/age/text() return $b/@id'),
        lambda: ('for $a in /site/closed_auctions/auction '
                 'for $p in /site/people/person where '
                 '$a/buyer/text() = $p/@id '
                 'return $p/name/text()'),
        lambda: ('for $p in /site/people/person order by '
                 f'$p/{rng.choice(("name", "age", "city"))}/text() '
                 'return $p/@id'),
        lambda: rng.choice((
            'sum(/site/closed_auctions/auction/price/text())',
            'sum(/site/closed_auctions/auction/quantity/text())',
            'avg(/site/people/person/age/text())',
            'min(/site/people/person/income/text())',
            'max(/site/people/person/age/text())')),
        lambda: ('distinct-values((/site/people/person/name/text(), '
                 '/site/people/person/city/text(), '
                 f'"{rng.choice(pools["names"])}"))'),
        lambda: (f'for $p in /site/people/person where '
                 f'starts-with($p/city/text(), '
                 f'"{_string_constant(rng, pools["cities"])}") '
                 f'return $p/name/text()'),
        lambda: ('for $a in /site/closed_auctions/auction return '
                 f'$a/price/text() * {rng.randint(1, 3)} + '
                 f'$a/quantity/text()'),
        lambda: (f'count(/site/people/person[age/text() '
                 f'{rng.choice(_OPS)} '
                 f'{_number_constant(rng, pools["ages"])}])'),
        lambda: (f'/site/people/person[@id = '
                 f'"{rng.choice(pools["ids"])}"]/name/text()'),
        lambda: ('for $p in /site/people/person where '
                 'empty($p/name/text()) return $p/@id'),
        lambda: ('string-length(/site/people/person[1]/name/text())'),
        lambda: ('for $p in /site/people/person where '
                 f'$p/age/text() {rng.choice(("<", ">="))} '
                 '$p/city/text() return $p/@id'),
        lambda: _theta_join(rng),    # twice: it has 128 shapes
        lambda: _theta_join(rng),
        lambda: _equi_join(rng),     # twice: it has 100 shapes
        lambda: _equi_join(rng),
        lambda: _selection(rng, pools),    # as often as five templates
        lambda: _selection(rng, pools),
        lambda: _selection(rng, pools),
        lambda: _selection(rng, pools),
        lambda: _selection(rng, pools),
    )
    while len(queries) < count:
        queries.append(rng.choice(makers)())
    return queries
