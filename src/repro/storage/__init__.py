"""XQueC's compressed storage model (paper §2.2).

An XML document is shredded into:

* a :class:`~repro.storage.name_dictionary.NameDictionary` encoding tag
  and attribute names on ``log2(N_t)`` bits;
* a :class:`~repro.storage.structure.StructureTree`: per node id its
  parent, tag code, post and level, value pointers and content, stored
  as columns (a node id is a position, so no search tree is built);
* one :class:`~repro.storage.containers.ValueContainer` per
  ``<type, root-to-leaf path>``, holding individually compressed values
  in lexicographic order;
* a :class:`~repro.storage.summary.StructureSummary` (path summary)
  whose leaves point at the containers;
* simple fan-out/cardinality statistics.

:class:`~repro.storage.repository.CompressedRepository` ties these
together; :func:`~repro.storage.loader.load_document` is the
loader/compressor.
"""

from repro.storage.containers import ContainerRecord, ValueContainer
from repro.storage.loader import load_document
from repro.storage.name_dictionary import NameDictionary
from repro.storage.repository import CompressedRepository
from repro.storage.structure import StructureTree
from repro.storage.summary import StructureSummary, SummaryNode

__all__ = [
    "CompressedRepository",
    "ContainerRecord",
    "NameDictionary",
    "StructureSummary",
    "StructureTree",
    "SummaryNode",
    "ValueContainer",
    "load_document",
]
