"""A lightweight in-memory XML tree.

Used by the uncompressed-engine baseline ("Galax" stand-in), the data
generators, and tests.  The XQueC loader itself streams events and never
materialises this tree.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.xmlio.events import END_TAG, START_TAG, scan


class Node:
    """Common base so that callers can type-switch on tree nodes."""

    __slots__ = ("parent",)

    def __init__(self):
        self.parent: Element | None = None


class Text(Node):
    """A text node."""

    __slots__ = ("value",)

    def __init__(self, value: str):
        super().__init__()
        self.value = value

    def __repr__(self) -> str:
        return f"Text({self.value!r})"


class Attribute(Node):
    """An attribute node (owned by an :class:`Element`)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: str):
        super().__init__()
        self.name = name
        self.value = value

    def __repr__(self) -> str:
        return f"Attribute({self.name!r}={self.value!r})"


class Element(Node):
    """An element with attributes and ordered children."""

    __slots__ = ("name", "attributes", "children")

    def __init__(self, name: str,
                 attributes: list[Attribute] | None = None,
                 children: list[Node] | None = None):
        super().__init__()
        self.name = name
        self.attributes: list[Attribute] = attributes or []
        self.children: list[Node] = children or []
        for attr in self.attributes:
            attr.parent = self
        for child in self.children:
            child.parent = self

    # -- construction -----------------------------------------------------

    def append(self, child: Node) -> Node:
        """Append a child node and return it."""
        child.parent = self
        self.children.append(child)
        return child

    def set_attribute(self, name: str, value: str) -> Attribute:
        """Add (or replace) an attribute and return it."""
        for attr in self.attributes:
            if attr.name == name:
                attr.value = value
                return attr
        attr = Attribute(name, value)
        attr.parent = self
        self.attributes.append(attr)
        return attr

    # -- navigation -------------------------------------------------------

    def attribute(self, name: str) -> str | None:
        """Value of attribute ``name``, or ``None``."""
        for attr in self.attributes:
            if attr.name == name:
                return attr.value
        return None

    def child_elements(self, name: str | None = None) -> list[Element]:
        """Element children, optionally filtered by tag name."""
        return [c for c in self.children
                if isinstance(c, Element) and (name is None or c.name == name)]

    def descendants(self, name: str | None = None) -> Iterator[Element]:
        """All descendant elements in document order (self excluded)."""
        for child in self.children:
            if isinstance(child, Element):
                if name is None or child.name == name:
                    yield child
                yield from child.descendants(name)

    def child_texts(self) -> list[Text]:
        """The text children, in document order."""
        return [c for c in self.children if isinstance(c, Text)]

    def descendant_texts(self) -> list[Text]:
        """Every text node below this element, in document order: a
        walk with an explicit stack, so any depth walks."""
        texts: list[Text] = []
        stack = [iter(self.children)]
        while stack:
            for child in stack[-1]:
                if isinstance(child, Text):
                    texts.append(child)
                elif isinstance(child, Element):
                    stack.append(iter(child.children))
                    break
            else:
                stack.pop()
        return texts

    def text(self) -> str:
        """Concatenated text of all descendant text nodes."""
        return "".join(text.value for text in self.descendant_texts())

    def __repr__(self) -> str:
        return (f"Element({self.name!r}, {len(self.attributes)} attrs, "
                f"{len(self.children)} children)")


class Document:
    """The document node: a single root element."""

    __slots__ = ("root",)

    def __init__(self, root: Element):
        self.root = root

    def iter_elements(self) -> Iterator[Element]:
        """Root followed by every descendant element in document order."""
        yield self.root
        yield from self.root.descendants()

    def __repr__(self) -> str:
        return f"Document(root=<{self.root.name}>)"


def parse(text: str, keep_whitespace: bool = False) -> Document:
    """Parse XML text into a :class:`Document`."""
    root: Element | None = None
    stack: list[Element] = []
    for kind, value, attributes in scan(text, keep_whitespace):
        if kind == START_TAG:
            element = Element(value,
                              [Attribute(n, v) for n, v in attributes])
            if stack:
                stack[-1].append(element)
            else:
                root = element
            stack.append(element)
        elif kind == END_TAG:
            stack.pop()
        else:
            stack[-1].append(Text(value))
    assert root is not None  # scan guarantees one root
    return Document(root)
