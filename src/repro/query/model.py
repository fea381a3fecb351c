"""Statement model for the mini-XQuery front end.

A :class:`Query` captures the FLWOR shape the paper's workloads use::

    for $sec in SECURITY('SDOC')/Security[Yield>4.5]
    where $sec/SecInfo/*/Sector = "Energy"
    return <Security>{$sec/Name}</Security>

i.e. one binding variable over an absolute path into a collection
(predicates allowed at any step), conjunctive where clauses comparing a
relative path against a literal (or testing existence), and return paths.
Secondary ``for`` bindings relative to the first variable are folded into
additional existence clauses plus return paths (same-document navigation).

Update statements (:class:`InsertStatement`, :class:`DeleteStatement`)
model the data-modification side: they carry enough structure for the
optimizer to cost them and for the advisor to charge index maintenance.

Statements are immutable values that key the optimizer's memos, so each
one computes its deep hash once (:func:`_hash_once`).  A statement's
``__dict__`` may also carry other derived memos under underscore names
(the rewriter's request extraction); only the dataclass fields are
compared, printed or pickled.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

from repro.xpath.ast import Literal, LocationPath


def _hash_once(cls):
    """Class decorator over ``@dataclass(frozen=True)``: keep the
    generated field-tuple hash, but walk the AST for it once per
    instance instead of on every dict lookup.

    ``str`` hashes differ between processes and a pickled statement may
    be loaded by another one, so ``__getstate__`` pickles the dataclass
    fields and nothing else.  Two threads racing to fill a
    memo store the same value.
    """
    deep_hash = cls.__hash__

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            value = deep_hash(self)
            object.__setattr__(self, "_hash", value)
            return value

    def __getstate__(self) -> dict:
        state = self.__dict__
        return {name: state[name] for name in self.__dataclass_fields__}

    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls


class StatementKind(enum.Enum):
    QUERY = "query"
    INSERT = "insert"
    DELETE = "delete"


@dataclass(frozen=True)
class WhereClause:
    """One conjunct of the where clause: ``$var/<path> <op> <literal>``,
    or an existence test when ``op`` is ``None``.

    ``path`` is relative to the binding variable.  An empty ``path``
    (``$var = "x"``) compares the bound node's own value.
    """

    path: LocationPath
    op: Optional[str] = None
    literal: Optional[Literal] = None

    def __post_init__(self) -> None:
        if self.path.absolute:
            raise ValueError("where-clause paths must be relative to the variable")
        if (self.op is None) != (self.literal is None):
            raise ValueError("op and literal must be given together")

    @property
    def is_comparison(self) -> bool:
        return self.op is not None

    def __str__(self) -> str:
        text = str(self.path) or "."
        if self.is_comparison:
            return f"${{var}}/{text} {self.op} {self.literal}"
        return f"${{var}}/{text}"


#: Aggregate functions usable in return expressions.
AGGREGATE_FUNCTIONS = ("count", "sum", "min", "max", "avg")


@dataclass(frozen=True)
class Aggregate:
    """``count($v/path)`` etc. in a return expression: computed per
    binding node over the nodes the (variable-rebased) path reaches."""

    function: str
    path: LocationPath

    def __post_init__(self) -> None:
        if self.function not in AGGREGATE_FUNCTIONS:
            raise ValueError(f"unsupported aggregate {self.function!r}")
        if self.path.absolute:
            raise ValueError("aggregate paths must be relative to the variable")

    def __str__(self) -> str:
        return f"{self.function}(${{var}}/{self.path})"


@_hash_once
@dataclass(frozen=True)
class Query:
    """A FLWOR query over one collection (see module docstring)."""

    collection: str
    binding_path: LocationPath
    where: Tuple[WhereClause, ...] = field(default_factory=tuple)
    return_paths: Tuple[LocationPath, ...] = field(default_factory=tuple)
    aggregates: Tuple[Aggregate, ...] = field(default_factory=tuple)
    text: str = ""

    def __post_init__(self) -> None:
        if not self.binding_path.absolute:
            raise ValueError("the binding path must be absolute")
        for path in self.return_paths:
            if path.absolute:
                raise ValueError("return paths must be relative to the variable")

    @property
    def kind(self) -> StatementKind:
        return StatementKind.QUERY

    def describe(self) -> str:
        if self.text:
            return " ".join(self.text.split())
        parts = [f"for $v in {self.collection}(){self.binding_path}"]
        if self.where:
            parts.append("where " + " and ".join(str(w) for w in self.where))
        return " ".join(parts)

    def __str__(self) -> str:
        return self.describe()


@_hash_once
@dataclass(frozen=True)
class JoinQuery:
    """A two-collection equi-join::

        for $o in ORDER('ODOC')/FIXML/Order, $s in SECURITY('SDOC')/Security
        where $o/Instrmt/@Sym = $s/Symbol and $s/Yield > 4.5
        return $o

    Each side is an ordinary :class:`Query` over its own collection (with
    its own where clauses and return paths); ``left_join_path`` /
    ``right_join_path`` are the join-key paths relative to each side's
    binding variable.  The optimizer chooses the driving side and between
    an index nested-loop join (probing a join-key index on the inner
    side) and a hash join (one scan of each side).
    """

    left: Query
    right: Query
    left_join_path: LocationPath
    right_join_path: LocationPath
    text: str = ""

    def __post_init__(self) -> None:
        if self.left_join_path.absolute or self.right_join_path.absolute:
            raise ValueError("join paths must be relative to their variables")
        if not self.left_join_path.steps or not self.right_join_path.steps:
            raise ValueError("join paths must navigate somewhere")

    @property
    def kind(self) -> StatementKind:
        return StatementKind.QUERY

    @property
    def collection(self) -> str:
        """The driving side's collection (code that needs both should use
        ``left.collection`` / ``right.collection`` explicitly)."""
        return self.left.collection

    def swapped(self) -> "JoinQuery":
        """The same join with the sides exchanged."""
        return JoinQuery(
            left=self.right,
            right=self.left,
            left_join_path=self.right_join_path,
            right_join_path=self.left_join_path,
            text=self.text,
        )

    def describe(self) -> str:
        if self.text:
            return " ".join(self.text.split())
        return (
            f"join {self.left.collection}{self.left.binding_path}"
            f"/{self.left_join_path} = "
            f"{self.right.collection}{self.right.binding_path}"
            f"/{self.right_join_path}"
        )

    def __str__(self) -> str:
        return self.describe()


@_hash_once
@dataclass(frozen=True)
class InsertStatement:
    """``insert into <collection> value '<xml>'``.

    ``document_text`` is a representative document; the optimizer costs the
    insert itself, and the advisor charges every index whose pattern matches
    nodes of documents in the collection (maintenance cost ``mc``).
    """

    collection: str
    document_text: str = ""
    text: str = ""

    @property
    def kind(self) -> StatementKind:
        return StatementKind.INSERT

    def describe(self) -> str:
        return self.text or f"insert into {self.collection}"

    def __str__(self) -> str:
        return self.describe()


@_hash_once
@dataclass(frozen=True)
class DeleteStatement:
    """``delete from <collection> where <abs-path> <op> <literal>``.

    The where part selects the documents to delete (it may also be an
    existence test with ``op is None``).
    """

    collection: str
    selector_path: LocationPath
    op: Optional[str] = None
    literal: Optional[Literal] = None
    text: str = ""

    def __post_init__(self) -> None:
        if not self.selector_path.absolute:
            raise ValueError("delete selector paths must be absolute")
        if (self.op is None) != (self.literal is None):
            raise ValueError("op and literal must be given together")

    @property
    def kind(self) -> StatementKind:
        return StatementKind.DELETE

    def describe(self) -> str:
        if self.text:
            return self.text
        cond = f"{self.selector_path}"
        if self.op is not None:
            cond += f" {self.op} {self.literal}"
        return f"delete from {self.collection} where {cond}"

    def __str__(self) -> str:
        return self.describe()


Statement = Union[Query, JoinQuery, InsertStatement, DeleteStatement]
