"""Node tree for XML documents.

The model follows what an XML database storage layer keeps per node: a
document-order node identifier (used by indexes as the "row id" of a node),
the node kind, the element/attribute name, parent and children links, and the
text value for leaves.  Node identifiers are dense integers assigned in
document order, so ``node_id`` comparisons give document order for free.
"""

from __future__ import annotations

import enum
from typing import Iterator, List, Optional, Tuple


def typed_value_of(text: str) -> object:
    """A string value typed the way :meth:`XmlNode.typed_value` types
    it: stripped, and a ``float`` when it parses as a number."""
    text = text.strip()
    try:
        return float(text)
    except ValueError:
        return text


class NodeKind(enum.Enum):
    """Kind of an :class:`XmlNode`."""

    DOCUMENT = "document"
    ELEMENT = "element"
    ATTRIBUTE = "attribute"
    TEXT = "text"


class XmlNode:
    """A single node in an XML document tree.

    Attributes:
        kind: The :class:`NodeKind` of this node.
        name: Element or attribute name (``None`` for text nodes).
        value: Text content for text and attribute nodes.
        parent: Parent node, or ``None`` for the document node.
        children: Child element/text nodes in document order.
        attributes: Attribute nodes of an element.
        node_id: Dense document-order identifier, assigned by
            :class:`XmlDocument`.
    """

    __slots__ = (
        "kind",
        "name",
        "value",
        "parent",
        "children",
        "attributes",
        "node_id",
    )

    def __init__(
        self,
        kind: NodeKind,
        name: Optional[str] = None,
        value: Optional[str] = None,
    ) -> None:
        self.kind = kind
        self.name = name
        self.value = value
        self.parent: Optional[XmlNode] = None
        self.children: List[XmlNode] = []
        self.attributes: List[XmlNode] = []
        self.node_id: int = -1

    # ------------------------------------------------------------------
    # Tree construction
    # ------------------------------------------------------------------
    def append_child(self, child: "XmlNode") -> "XmlNode":
        """Attach ``child`` as the last child of this node and return it."""
        if child.kind is NodeKind.ATTRIBUTE:
            raise ValueError("attributes must be added with set_attribute()")
        child.parent = self
        self.children.append(child)
        return child

    def set_attribute(self, name: str, value: str) -> "XmlNode":
        """Attach an attribute node ``name="value"`` to this element."""
        if self.kind is not NodeKind.ELEMENT:
            raise ValueError("only elements can carry attributes")
        attr = XmlNode(NodeKind.ATTRIBUTE, name=name, value=value)
        attr.parent = self
        self.attributes.append(attr)
        return attr

    # ------------------------------------------------------------------
    # Navigation
    # ------------------------------------------------------------------
    def child_elements(self) -> Iterator["XmlNode"]:
        """Iterate over element children in document order."""
        for child in self.children:
            if child.kind is NodeKind.ELEMENT:
                yield child

    def descendants_or_self(self) -> Iterator["XmlNode"]:
        """Iterate over this element and all descendant elements, in
        document order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed([c for c in node.children if c.kind is NodeKind.ELEMENT]))

    def attribute(self, name: str) -> Optional["XmlNode"]:
        """Return the attribute node with ``name``, or ``None``."""
        for attr in self.attributes:
            if attr.name == name:
                return attr
        return None

    def tag_path(self) -> Tuple[str, ...]:
        """Return the rooted tag path of this node, e.g. ``("Security",
        "Yield")`` -- the sequence of element names from the document root
        down to this node (attributes contribute ``@name``)."""
        parts: List[str] = []
        node: Optional[XmlNode] = self
        while node is not None and node.kind is not NodeKind.DOCUMENT:
            if node.kind is NodeKind.ATTRIBUTE:
                parts.append("@" + (node.name or ""))
            elif node.kind is NodeKind.ELEMENT:
                parts.append(node.name or "")
            node = node.parent
        return tuple(reversed(parts))

    # ------------------------------------------------------------------
    # Values
    # ------------------------------------------------------------------
    def string_value(self) -> str:
        """The concatenated text content of this node (XPath string value)."""
        if self.kind in (NodeKind.TEXT, NodeKind.ATTRIBUTE):
            return self.value or ""
        parts: List[str] = []
        stack = list(reversed(self.children))
        while stack:
            node = stack.pop()
            if node.kind is NodeKind.TEXT:
                parts.append(node.value or "")
            else:
                stack.extend(reversed(node.children))
        return "".join(parts)

    def typed_value(self) -> object:
        """The string value coerced to ``float`` when it parses as a number,
        mirroring how a typed XML value index keys its entries."""
        return typed_value_of(self.string_value())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.kind is NodeKind.ELEMENT:
            return f"<XmlNode element {self.name!r} id={self.node_id}>"
        if self.kind is NodeKind.ATTRIBUTE:
            return f"<XmlNode attribute {self.name!r}={self.value!r}>"
        if self.kind is NodeKind.TEXT:
            return f"<XmlNode text {self.value!r}>"
        return f"<XmlNode document id={self.node_id}>"


class XmlDocument:
    """A parsed XML document: a document node plus its node table.

    The constructor walks the tree and assigns dense document-order
    ``node_id`` values (document node gets 0).  ``nodes[node_id]`` recovers
    any node from its identifier, which is how index entries point back into
    the document.
    """

    __slots__ = ("doc_id", "document_node", "nodes", "_synopsis")

    def __init__(self, root_element: XmlNode, doc_id: int = -1) -> None:
        if root_element.kind is not NodeKind.ELEMENT:
            raise ValueError("document root must be an element node")
        self.doc_id = doc_id
        self.document_node = XmlNode(NodeKind.DOCUMENT)
        self.document_node.append_child(root_element)
        self.nodes: List[XmlNode] = []
        #: Cached per-document path synopsis (see
        #: :mod:`repro.storage.synopsis`); built lazily, derived data only.
        self._synopsis = None
        self._assign_node_ids()

    def __getstate__(self):
        # ``nodes`` is rebuilt from the tree and the synopsis is derived
        # data whose cached interned path ids are process-local; shipping
        # either across a process boundary would be redundant or wrong.
        return (self.doc_id, self.document_node)

    def __setstate__(self, state) -> None:
        self.doc_id, self.document_node = state
        self._synopsis = None
        self._assign_node_ids()

    def _assign_node_ids(self) -> None:
        self.nodes = []
        stack = [self.document_node]
        while stack:
            node = stack.pop()
            node.node_id = len(self.nodes)
            self.nodes.append(node)
            # Attributes come right after their owner element, before children,
            # matching the document-order convention used by XML stores.
            pending = list(node.attributes) + list(node.children)
            stack.extend(reversed(pending))

    @property
    def root(self) -> XmlNode:
        """The root element of the document."""
        for child in self.document_node.children:
            if child.kind is NodeKind.ELEMENT:
                return child
        raise ValueError("document has no root element")

    def node_count(self) -> int:
        """Total number of nodes (document, elements, attributes, text)."""
        return len(self.nodes)

    def element_count(self) -> int:
        """Number of element nodes in the document."""
        return sum(1 for n in self.nodes if n.kind is NodeKind.ELEMENT)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<XmlDocument doc_id={self.doc_id} root={self.root.name!r} nodes={len(self.nodes)}>"


def element(name: str, *children: XmlNode, text: Optional[str] = None, **attrs: str) -> XmlNode:
    """Convenience constructor for building trees in tests and generators.

    ``element("Security", element("Yield", text="4.5"))`` builds
    ``<Security><Yield>4.5</Yield></Security>``.
    """
    node = XmlNode(NodeKind.ELEMENT, name=name)
    for key, value in attrs.items():
        node.set_attribute(key, value)
    if text is not None:
        node.append_child(XmlNode(NodeKind.TEXT, value=text))
    for child in children:
        node.append_child(child)
    return node
