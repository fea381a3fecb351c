"""Per-document path synopses: the incremental storage engine's spine.

A :class:`DocumentSynopsis` is built in **one walk** over a document at
parse/insert time and records, per distinct rooted tag path (in first-seen
preorder):

* the node ids reached through that path (ascending -- document order),
* the node string values in the same order, and
* a mergeable exact delta ``(count, numeric_count, total_string_bytes)``.

Everything downstream rides this one walk instead of re-walking the tree:

* ``collect_statistics`` merges per-document synopses (bit-identical to a
  node-by-node rescan because each path's value stream is preserved),
* ``Database.insert_document``/``delete_document`` apply +/- deltas to live
  :class:`~repro.storage.statistics.DataStatistics`,
* every :class:`~repro.storage.index.PathIndex` on the collection derives
  its entries from the shared synopsis (one walk per document total), and
* the :class:`~repro.optimizer.executor.Executor` resolves predicate-free
  absolute paths as a compiled-matcher bitmap over the document's interned
  path ids followed by a node-id lookup, and answers residual predicates
  from the same slots' typed values (:func:`pattern_hits`).

The walk order exactly mirrors ``statistics._scan_document`` and
``index._walk_with_paths``: element (string value = concatenated subtree
text), then its attributes, then children -- which is also the order
``XmlDocument._assign_node_ids`` assigns ids in, so per-path node-id lists
come out ascending for free.

Interned path ids (``path_ids``) are cached process-locally and dropped on
pickling: ids interned in this process's ``GLOBAL_TABLE`` would silently
mismatch another process's table.  Typed values (``typed_values``) are
derived per slot on first use and dropped on pickling too.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.xmlmodel.nodes import XmlDocument, XmlNode, typed_value_of
from repro.xpath.compiled import GLOBAL_TABLE
from repro.xpath.evaluator import compare_value

TagPath = Tuple[str, ...]


class DocumentSynopsis:
    """One document's path synopsis (see module docstring).

    Attributes (parallel lists, indexed by *slot* in first-seen preorder):
        tag_paths: Distinct rooted tag paths of the document.
        node_ids: Per-slot ascending node ids reached through the path.
        values: Per-slot node string values, in node-id (document) order.
        deltas: Per-slot ``(count, numeric_count, total_string_bytes)``.
        node_count: Total nodes in the document (all kinds).
        element_count: Element nodes only.
    """

    __slots__ = (
        "tag_paths",
        "node_ids",
        "values",
        "deltas",
        "node_count",
        "element_count",
        "_slots",
        "_path_ids",
        "_typed",
    )

    def __init__(
        self,
        tag_paths: List[TagPath],
        node_ids: List[List[int]],
        values: List[List[str]],
        deltas: List[Tuple[int, int, int]],
        node_count: int,
        element_count: int,
    ) -> None:
        self.tag_paths = tag_paths
        self.node_ids = node_ids
        self.values = values
        self.deltas = deltas
        self.node_count = node_count
        self.element_count = element_count
        self._slots: Dict[TagPath, int] = {
            path: slot for slot, path in enumerate(tag_paths)
        }
        self._path_ids: Optional[List[int]] = None
        self._typed: Optional[List[Optional[List[object]]]] = None

    # ------------------------------------------------------------------
    # Pickling: interned ids are process-local, the slot map is derived.
    # ------------------------------------------------------------------
    def __getstate__(self):
        return (
            self.tag_paths,
            self.node_ids,
            self.values,
            self.deltas,
            self.node_count,
            self.element_count,
        )

    def __setstate__(self, state) -> None:
        (
            self.tag_paths,
            self.node_ids,
            self.values,
            self.deltas,
            self.node_count,
            self.element_count,
        ) = state
        self._slots = {path: slot for slot, path in enumerate(self.tag_paths)}
        self._path_ids = None
        self._typed = None

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def path_ids(self) -> List[int]:
        """Interned ids of ``tag_paths`` against the process-global path
        table, cached.  Callers that follow up with a compiled matcher's
        ``matching_ids()`` must call this *first* so the matcher's tail
        scan covers any newly interned paths."""
        ids = self._path_ids
        if ids is None:
            ids = [GLOBAL_TABLE.intern(path) for path in self.tag_paths]
            self._path_ids = ids
        return ids

    def typed_values(self, slot: int) -> List[object]:
        """The slot's node values typed exactly as
        :meth:`~repro.xmlmodel.nodes.XmlNode.typed_value` types them
        (:func:`~repro.xmlmodel.nodes.typed_value_of`).  Computed once
        per slot, on first use."""
        typed = self._typed
        if typed is None:
            typed = self._typed = [None] * len(self.tag_paths)
        values = typed[slot]
        if values is None:
            values = typed[slot] = [
                typed_value_of(text) for text in self.values[slot]
            ]
        return values

    def slot_of(self, tag_path: TagPath) -> Optional[int]:
        """Slot index of ``tag_path`` in this document, or ``None``."""
        return self._slots.get(tag_path)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DocumentSynopsis paths={len(self.tag_paths)} "
            f"nodes={self.node_count}>"
        )


def build_synopsis(document: XmlDocument) -> DocumentSynopsis:
    """Build a document's synopsis in one preorder walk."""
    tag_paths: List[TagPath] = []
    node_ids: List[List[int]] = []
    values: List[List[str]] = []
    slots: Dict[TagPath, int] = {}
    element_count = 0

    def record(tag_path: TagPath, node_id: int, text: str) -> None:
        slot = slots.get(tag_path)
        if slot is None:
            slot = len(tag_paths)
            slots[tag_path] = slot
            tag_paths.append(tag_path)
            node_ids.append([])
            values.append([])
        node_ids[slot].append(node_id)
        values[slot].append(text)

    root = document.root
    stack: List[Tuple[XmlNode, TagPath]] = [(root, (root.name or "",))]
    while stack:
        node, tag_path = stack.pop()
        element_count += 1
        record(tag_path, node.node_id, node.string_value())
        for attr in node.attributes:
            attr_path = tag_path + ("@" + (attr.name or ""),)
            record(attr_path, attr.node_id, attr.value or "")
        for child in reversed(list(node.child_elements())):
            stack.append((child, tag_path + (child.name or "",)))

    deltas: List[Tuple[int, int, int]] = []
    for slot_values in values:
        numeric = 0
        string_bytes = 0
        for text in slot_values:
            string_bytes += len(text)
            try:
                float(text.strip())
            except ValueError:
                pass
            else:
                numeric += 1
        deltas.append((len(slot_values), numeric, string_bytes))

    return DocumentSynopsis(
        tag_paths=tag_paths,
        node_ids=node_ids,
        values=values,
        deltas=deltas,
        node_count=document.node_count(),
        element_count=element_count,
    )


def get_synopsis(document: XmlDocument) -> DocumentSynopsis:
    """The document's cached synopsis, building it on first use."""
    synopsis = document._synopsis
    if synopsis is None:
        synopsis = build_synopsis(document)
        document._synopsis = synopsis
    return synopsis


def pattern_hits(
    document: XmlDocument, pattern, op: Optional[str] = None, literal=None
) -> List[int]:
    """Ascending ids of the nodes of ``document`` that ``pattern`` (a
    :class:`~repro.xpath.patterns.PathPattern`) reaches and whose typed
    value passes ``compare_value(value, op, literal)`` -- every reached
    node when ``op`` is ``None``.  A concrete pattern is one slot lookup;
    any other is a matcher bitmap over the synopsis path ids.  Never a
    tree walk."""
    synopsis = get_synopsis(document)
    if pattern.tag_path is not None:
        slot = synopsis.slot_of(pattern.tag_path)
        slots = () if slot is None else (slot,)
    else:
        ids = synopsis.path_ids()  # intern before the matcher's tail scan
        matched = pattern.matcher.matching_ids()
        slots = [slot for slot, path_id in enumerate(ids) if path_id in matched]
    found: List[int] = []
    for slot in slots:
        if op is None:
            found.extend(synopsis.node_ids[slot])
            continue
        for node_id, value in zip(
            synopsis.node_ids[slot], synopsis.typed_values(slot)
        ):
            if compare_value(value, op, literal):
                found.append(node_id)
    if len(slots) > 1:
        found.sort()
    return found


def pattern_nodes(document: XmlDocument, pattern) -> List[XmlNode]:
    """Nodes of ``document`` reached by ``pattern``, in document order
    (see :func:`pattern_hits`)."""
    nodes = document.nodes
    return [nodes[node_id] for node_id in pattern_hits(document, pattern)]
