"""XQueC reproduction: efficient query evaluation over compressed XML.

Reimplements Arion, Bonifati, Costa, D'Aguanno, Manolescu & Pugliese,
*Efficient Query Evaluation over Compressed XML Data* (EDBT 2004) — the
XQueC system — together with every substrate it depends on and the
comparator systems of its evaluation.  See DESIGN.md for the system
inventory and EXPERIMENTS.md for the paper-vs-measured record.

Quickstart::

    from repro import Database
    database = Database.from_xml(xml_text)
    print(database.repository.compression_factor)
    session = database.session()
    print(session.execute("/site/people/person/name/text()").items)
"""

from repro.query.engine import QueryEngine, QueryResult
from repro.service.session import Database
from repro.storage.loader import load_document
from repro.storage.repository import CompressedRepository

__version__ = "1.0.0"

__all__ = [
    "CompressedRepository",
    "Database",
    "QueryEngine",
    "QueryResult",
    "load_document",
    "__version__",
]
