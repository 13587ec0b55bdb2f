"""Persistence: compress once, query across sessions.

Builds an XMark repository, saves it to an ``.xqc`` file (seven
checksummed sections), loads it back (bit-identical compressed
values), and queries it — including a whole-word text predicate
answered from the containers.

Run:  python examples/persistent_store.py
"""

import tempfile
from pathlib import Path

from repro.query.engine import QueryEngine
from repro.storage.loader import load_document
from repro.storage.serialization import load_repository, save_repository
from repro.xmark.generator import generate_xmark


def main() -> None:
    xml_text = generate_xmark(factor=0.03, seed=3)
    print(f"document: {len(xml_text) / 1024:.0f} KB")

    repository = load_document(xml_text)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "auction.xqc"
        save_repository(repository, path)
        on_disk = path.stat().st_size
        print(f"repository file: {on_disk / 1024:.0f} KB "
              f"({on_disk / len(xml_text.encode()):.0%} of the "
              "document, checksummed sections)")

        # A "new session": load and query.
        loaded = load_repository(path)
        engine = QueryEngine(loaded)

        result = engine.execute(
            'for $p in /site/people/person '
            'where $p/name/text() < "C" return $p/name/text()')
        print("names < 'C':", result.items)
        print(f"  [{result.stats.compressed_comparisons} compressed "
              f"comparisons, {result.stats.decompressions} "
              "decompressions]")

        # The whole-word predicate (the paper's Sec 6 extension) starts
        # from the description container's q-gram candidates, indexed
        # in memory on first use; nothing is registered or stored.
        result = engine.execute(
            'for $i in /site/regions/europe/item '
            'where word-contains($i/description/text/text(), "gold") '
            "return $i/@id")
        print("items mentioning 'gold':", result.items)
        print(f"  [{result.stats.container_accesses} container probe, "
              f"{result.stats.decompressions} decompressions]")
        print()
        print("plan for that query:")
        print(engine.explain(
            'for $i in /site/regions/europe/item '
            'where word-contains($i/description/text/text(), "gold") '
            "return $i/@id"))


if __name__ == "__main__":
    main()
