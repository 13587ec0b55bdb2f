"""The paper's scenario: an XMark auction site, queried compressed.

Generates an auction document with the bundled xmlgen work-alike,
loads it into XQueC with the XMark query workload driving the
compression configuration, and runs the benchmark queries — including
the Q8/Q9 value joins where the compressed engine beats the naive
uncompressed evaluator by orders of magnitude.

Run:  python examples/auction_site.py
"""

import time

from repro import Database, load_document
from repro.baselines.galax import GalaxEngine
from repro.core.system import tuned_configuration
from repro.xmark.generator import generate_xmark
from repro.xmark.queries import XMARK_QUERIES, query_text

FACTOR = 0.03  # ~350 KB document; raise toward 1.0 for XMark11 scale


def main() -> None:
    print(f"generating XMark document (factor {FACTOR})...")
    xml_text = generate_xmark(factor=FACTOR, seed=1)
    print(f"  {len(xml_text) / 1024:.0f} KB, "
          f"{xml_text.count('<person ')} persons, "
          f"{xml_text.count('<closed_auction>')} closed auctions")

    print("loading into XQueC (workload-driven compression)...")
    workload = [text for _, text in XMARK_QUERIES.values()]
    start = time.perf_counter()
    configuration = tuned_configuration(load_document(xml_text), workload)
    database = Database.from_xml(xml_text, configuration=configuration)
    session = database.session()
    print(f"  loaded in {time.perf_counter() - start:.1f}s, "
          f"CF = {database.repository.compression_factor:.2f}")
    print(f"  configuration groups: {len(configuration.groups)}")

    print("loading the uncompressed comparator (Galax stand-in)...")
    galax = GalaxEngine(xml_text)

    print()
    print(f"{'query':<6} {'XQueC':>9} {'Galax':>9}   description")
    for query_id in ("Q1", "Q5", "Q14", "Q20", "Q8", "Q9"):
        description, text = XMARK_QUERIES[query_id]
        start = time.perf_counter()
        ours = session.execute(text).to_xml()
        xquec_s = time.perf_counter() - start
        start = time.perf_counter()
        theirs = galax.execute_to_xml(text)
        galax_s = time.perf_counter() - start
        assert ours == theirs, f"{query_id}: engines disagree"
        print(f"{query_id:<6} {xquec_s:>8.3f}s {galax_s:>8.3f}s   "
              f"{description}")

    print()
    print("sample result (Q1):",
          session.execute(query_text("Q1")).to_xml())


if __name__ == "__main__":
    main()
