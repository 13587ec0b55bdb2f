"""From-scratch XML layer: scanner, event stream, DOM, serializer.

The loader and the DOM (:func:`parse`) read the tuples of
:func:`repro.xmlio.events.scan`; :func:`iter_events` wraps them as objects.
"""

from repro.xmlio.dom import Attribute, Document, Element, Text, parse
from repro.xmlio.events import (
    Characters,
    EndDocument,
    EndElement,
    StartDocument,
    StartElement,
    iter_events,
)
from repro.xmlio.writer import serialize

__all__ = [
    "Attribute",
    "Characters",
    "Document",
    "Element",
    "EndDocument",
    "EndElement",
    "StartDocument",
    "StartElement",
    "Text",
    "iter_events",
    "parse",
    "serialize",
]
