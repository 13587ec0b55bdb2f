"""Multi-document collections: join compressed documents.

Loads two separately compressed documents into one database and runs
``document("...")`` queries — including a cross-document join and a
compressed result shipped as the paper's §1 network scenario suggests.

Run:  python examples/multi_document.py
"""

from repro.query.shipping import receive_result
from repro.service.session import Database
from repro.storage.loader import load_document

CUSTOMERS = """
<customers>
  <customer id="c0"><name>Acme Corp</name><tier>gold</tier></customer>
  <customer id="c1"><name>Globex</name><tier>silver</tier></customer>
  <customer id="c2"><name>Initech</name><tier>gold</tier></customer>
</customers>
"""

INVOICES = """
<invoices>
  <invoice customer="c0"><amount>1200</amount><year>2003</year></invoice>
  <invoice customer="c2"><amount>450</amount><year>2003</year></invoice>
  <invoice customer="c0"><amount>3100</amount><year>2004</year></invoice>
  <invoice customer="c1"><amount>90</amount><year>2004</year></invoice>
</invoices>
"""


def main() -> None:
    repositories = {
        "customers.xml": load_document(CUSTOMERS),
        "invoices.xml": load_document(INVOICES),
    }
    session = Database(repositories["customers.xml"],
                       repositories).session()

    print("gold customers:")
    result = session.execute(
        'for $c in document("customers.xml")/customers/customer '
        'where $c/tier/text() = "gold" return $c/name/text()')
    for name in result.items:
        print(f"  {name}")

    print()
    print("revenue per gold customer (cross-document join):")
    result = session.execute(
        'for $c in document("customers.xml")/customers/customer '
        'where $c/tier/text() = "gold" '
        'return <revenue name="{$c/name/text()}">{'
        'sum(for $i in document("invoices.xml")/invoices/invoice '
        "where $i/@customer = $c/@id "
        "return number($i/amount/text()))}</revenue>")
    print(" ", result.to_xml().replace("\n", "\n  "))
    # One MergeJoin on the two key containers: a scan of each.
    print(f"  [container scans: {result.stats.container_scans}]")

    print()
    print("shipping a compressed result (the paper's network scenario):")
    result = session.execute(
        'document("customers.xml")/customers/customer/name/text()')
    frame = result.ship()
    received = receive_result(frame)
    print(f"  frame: {len(frame)} bytes for {len(received)} values "
          f"({received.plain_bytes} bytes plain)")
    print(f"  received: {received.values}")


if __name__ == "__main__":
    main()
