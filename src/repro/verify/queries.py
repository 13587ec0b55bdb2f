"""Query-template generation for the engine oracle.

Templates cover every compressed-domain decision the engine makes:
point equality and range predicates with *numeric* and with *string*
constants, over string and numeric containers (each combination picks
a different fast path or fallback); variable-to-variable comparisons
under one shared source model; ``starts-with`` (the ``wild``
predicate) at arbitrary codeword boundaries; joins; aggregates over
numeric and mixed containers; ``order by``; ``distinct-values`` across
containers; theta joins with a scaled side (``ThetaJoin`` and its
fallbacks).  Constants are drawn from the document's own value pools
plus adversarial neighbours (absent values, fractional bounds over int
containers, the empty string).
"""

from __future__ import annotations

import random


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
            "ids": [p["id"] for p in people] or ["p0"]}


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
    )
    while len(queries) < count:
        queries.append(rng.choice(makers)())
    return queries
