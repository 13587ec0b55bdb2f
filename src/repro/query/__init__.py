"""The XQueC query processor (paper §4).

A query parser for the FLWOR subset the paper's experiments use, a
physical algebra whose operators work directly on the compressed
repository (``ContScan``, ``ContAccess``, ``ContSubstring``,
``StructureSummaryAccess``, ``Parent``, ``NodeSet``, merge, theta and
nested-loop joins, and explicit ``Decompress``) — exactly the
operators the optimizer's plans contain — an access-path optimizer,
and the evaluation engine.

Predicates are pushed into the compressed domain whenever the container
codec supports them; decompression happens only at serialization time.
"""

from repro.query.engine import QueryEngine, QueryResult
from repro.query.parser import parse_query

__all__ = ["QueryEngine", "QueryResult", "parse_query"]
