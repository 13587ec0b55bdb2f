"""Serialize a DOM tree (or event stream) back to XML text."""

from __future__ import annotations

from repro.xmlio.dom import Document, Element, Node, Text
from repro.xmlio.escape import escape_attribute, escape_text


def serialize(node: Document | Node, indent: str | None = None) -> str:
    """Serialize a document, element, or text node to XML text.

    ``indent=None`` produces compact output whose parse round-trips exactly
    (no synthetic whitespace); passing e.g. ``"  "`` pretty-prints.
    """
    if isinstance(node, Document):
        node = node.root
    if isinstance(node, Text):
        return escape_text(node.value)
    return "".join(markup(node, indent))


def markup(root: Element, indent: str | None = None,
           keep_texts: bool = False) -> list:
    """``root``'s serialization as a list of strings, in output order.

    One explicit-stack walk, so any depth serializes.  ``keep_texts``
    (compact output only) leaves each :class:`Text` node in the list
    unread and unescaped instead of its escaped value: the result-set
    frame (:mod:`repro.query.shipping`) may ship it still compressed.
    """
    newline = "" if indent is None else "\n"
    parts: list = []
    append = parts.append
    # ``(element, depth)`` still to open, else a part ready to emit.
    stack: list = [(root, 0)]
    while stack:
        entry = stack.pop()
        if entry.__class__ is not tuple:
            append(entry if keep_texts or entry.__class__ is str
                   else escape_text(entry.value))
            continue
        node, depth = entry
        pad = "" if indent is None else indent * depth
        tag = f"{pad}<{node.name}"
        if node.attributes:
            tag += "".join([f' {attr.name}="{escape_attribute(attr.value)}"'
                            for attr in node.attributes])
        children = node.children
        if not children:
            append(f"{tag}/>{newline}")
            continue
        if all(isinstance(c, Text) for c in children):
            append(tag + ">")
            for child in children:
                append(child if keep_texts else escape_text(child.value))
            append(f"</{node.name}>{newline}")
            continue
        append(f"{tag}>{newline}")
        stack.append(f"{pad}</{node.name}>{newline}")
        for child in reversed(children):
            if not isinstance(child, Text):
                stack.append((child, depth + 1))
            elif indent is None:
                stack.append(child)
            elif child.value.strip():
                stack.append(f"{pad}{indent}"
                             f"{escape_text(child.value)}{newline}")
    return parts
