"""Quickstart: compress an XML document and query it while compressed.

Run:  python examples/quickstart.py
"""

from repro import Database

CATALOG = """
<library>
  <book isbn="0201633612">
    <title>Design Patterns</title>
    <author>Erich Gamma</author>
    <price>54.99</price>
    <year>1994</year>
  </book>
  <book isbn="0132350882">
    <title>Clean Code</title>
    <author>Robert Martin</author>
    <price>39.99</price>
    <year>2008</year>
  </book>
  <book isbn="0596007124">
    <title>Head First Design Patterns</title>
    <author>Eric Freeman</author>
    <price>44.95</price>
    <year>2004</year>
  </book>
</library>
"""


def main() -> None:
    # 1. Load: the document is shredded into a compressed repository —
    #    a name dictionary, a structure tree, per-path value containers
    #    (ALM-compressed strings, typed numeric codecs) and a path
    #    summary.
    database = Database.from_xml(CATALOG)
    repository = database.repository
    report = repository.size_report()
    print(f"original size      : {report.original} bytes")
    print(f"compressed (total) : {report.total} bytes "
          f"(CF = {repository.compression_factor:.2f})")
    print(f"containers         : "
          f"{', '.join(repository.container_paths()[:3])}, ...")
    print()

    # 2. Query with XQuery; predicates run in the compressed domain.
    session = database.session()
    queries = [
        ("titles", "/library/book/title/text()"),
        ("cheap books",
         "for $b in /library/book where $b/price/text() < 45 "
         "return $b/title/text()"),
        ("recent, as XML",
         "for $b in /library/book where $b/year/text() >= 2004 "
         'return <hit isbn="{$b/@isbn}">{$b/title/text()}</hit>'),
        ("average price",
         "avg(/library/book/price/text())"),
    ]
    for label, query in queries:
        result = session.execute(query)
        print(f"{label}:")
        print(f"  {result.to_xml()}")
        print(f"  [compressed comparisons: "
              f"{result.stats.compressed_comparisons}, "
              f"decompressions: {result.stats.decompressions}]")
        print()


if __name__ == "__main__":
    main()
