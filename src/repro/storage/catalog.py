"""Database catalog of XML index definitions.

The catalog tracks both *real* indexes (physically built, usable by the
executor) and *virtual* indexes (catalog-only, visible to the optimizer in
its special modes but never to execution -- Section III of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.storage.index import IndexValueType
from repro.xpath.patterns import PathPattern


@dataclass(frozen=True)
class IndexDefinition:
    """Definition of a partial XML index.

    Mirrors DB2's ``CREATE INDEX ... ON t(xmlcol) GENERATE KEY USING
    XMLPATTERN '<pattern>' AS SQL <type>``.

    Attributes:
        name: Unique index name.
        collection: The collection (table/column) the index is on.
        pattern: The linear XPath index pattern.
        value_type: Key type (string or numeric).
        virtual: True for optimizer-only virtual indexes.
    """

    name: str
    collection: str
    pattern: PathPattern
    value_type: IndexValueType
    virtual: bool = False

    def ddl(self) -> str:
        """A DB2-flavoured DDL rendering of this definition."""
        sql_type = (
            "DOUBLE" if self.value_type is IndexValueType.NUMERIC else "VARCHAR(128)"
        )
        virtual_comment = "  -- VIRTUAL" if self.virtual else ""
        return (
            f"CREATE INDEX {self.name} ON {self.collection}(xmlcol) "
            f"GENERATE KEY USING XMLPATTERN '{self.pattern}' "
            f"AS SQL {sql_type};{virtual_comment}"
        )

    def __str__(self) -> str:
        flag = "virtual " if self.virtual else ""
        return f"{flag}index {self.name} on {self.collection} pattern {self.pattern} ({self.value_type.value})"


class Catalog:
    """Registry of index definitions, keyed by name."""

    def __init__(self) -> None:
        self._definitions: Dict[str, IndexDefinition] = {}
        self._name_counter = 0
        #: Moves with every name minted, added or removed: the name
        #: :meth:`fresh_name` returns next is a function of it.
        self.stamp = 0

    def add(self, definition: IndexDefinition) -> None:
        if definition.name in self._definitions:
            raise ValueError(f"index {definition.name!r} already exists")
        self._definitions[definition.name] = definition
        self.stamp += 1

    def remove(self, name: str) -> None:
        if name not in self._definitions:
            raise KeyError(f"no index named {name!r}")
        del self._definitions[name]
        self.stamp += 1

    def get(self, name: str) -> IndexDefinition:
        if name not in self._definitions:
            raise KeyError(f"no index named {name!r}")
        return self._definitions[name]

    def __contains__(self, name: str) -> bool:
        return name in self._definitions

    def all_definitions(self) -> List[IndexDefinition]:
        return list(self._definitions.values())

    def definitions_for(
        self, collection: str, include_virtual: bool = True
    ) -> List[IndexDefinition]:
        """Index definitions on a collection, optionally excluding virtual
        ones (execution must never see a virtual index)."""
        return [
            d
            for d in self._definitions.values()
            if d.collection == collection and (include_virtual or not d.virtual)
        ]

    def fresh_name(self, prefix: str = "idx") -> str:
        """Generate an unused index name."""
        self.stamp += 1
        while True:
            self._name_counter += 1
            name = f"{prefix}_{self._name_counter}"
            if name not in self._definitions:
                return name

    def remove_virtual(self) -> None:
        """Drop every virtual index definition (end of an advisor session)."""
        for name in [n for n, d in self._definitions.items() if d.virtual]:
            del self._definitions[name]
            self.stamp += 1

    def __len__(self) -> int:
        return len(self._definitions)
