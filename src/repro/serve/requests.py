"""Typed responses of the serving front end.

Every endpoint of :class:`~repro.serve.server.AdvisorServer` returns a
:class:`Response` -- never raises.  Failures are mapped onto a small
machine-readable error-code taxonomy (the serve analogue of the
robustness error taxonomy) so clients, the chaos tests, and the CLI can
branch on ``code`` instead of parsing tracebacks:

==================  =========================================================
code                meaning
==================  =========================================================
``rejected``        admission control refused the request (typed
                    :class:`~repro.robustness.errors.AdmissionRejected`:
                    tenant optimizer-call quota exhausted)
``config``          a :class:`~repro.robustness.errors.ConfigError`
                    surfaced inside the request (junk ``REPRO_*`` env or
                    server option); the CLI maps this onto exit code 2
``bad-request``     malformed payload: unparseable statement, unknown
                    collection, wrong statement kind for the endpoint
``advisor-error``   a typed advisor runtime failure (FatalAdvisorError,
                    injected faults past retries, ...)
``internal``        anything else -- the "never a 500" backstop; the
                    exception is captured, never propagated
==================  =========================================================
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any, Dict, Optional, Tuple

#: Error codes a Response may carry (``None`` on success).
ERROR_CODES = ("rejected", "config", "bad-request", "advisor-error", "internal")


class _SlotValue(Mapping):
    """A read-only mapping whose keys are the subclass's ``__slots__``.

    Served queries and writes are the bulk of what a server hands out
    and callers keep, so their values, statistics digests and journal
    entries are slotted objects (~60-80 B) instead of dicts (~200-270 B)
    that still read ``value["rows"]``.  Sequences are held as tuples;
    :meth:`to_dict` is the plain-dict JSON form, lists included.
    """

    __slots__ = ()

    def __init__(self, *values) -> None:
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {self.__slots__}")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __getitem__(self, key: str):
        if key in self.__slots__:
            return getattr(self, key)
        raise KeyError(key)

    def __iter__(self):
        return iter(self.__slots__)

    def __len__(self) -> int:
        return len(self.__slots__)

    def to_dict(self) -> Dict:
        return {name: plain(value) for name, value in self.items()}

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_dict()!r})"


def plain(value):
    """The JSON form of a served value: slotted mappings (also inside a
    dict, as in a statistics fingerprint) become dicts, tuples lists."""
    if isinstance(value, _SlotValue):
        return value.to_dict()
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    return value


class StatisticsDigest(_SlotValue):
    """One collection's entry in a response's statistics fingerprint."""

    __slots__ = ("doc_count", "total_nodes", "paths", "path_nodes")


class JournalEntry(_SlotValue):
    """One committed write in the server's replay journal."""

    __slots__ = ("seq", "text", "collection", "epoch", "rows")


class QueryValue(_SlotValue):
    """The value of a served ``query``."""

    __slots__ = (
        "rows",
        "docs_examined",
        "used_indexes",
        "index_entries_scanned",
        "output",
        "statistics",
    )


class DmlValue(_SlotValue):
    """The value of a served ``dml`` write."""

    __slots__ = ("rows", "docs_examined", "statistics")


class Response:
    """One endpoint result.

    ``epoch`` is the epoch token the request was served at (sorted
    ``(collection, epoch)`` pairs; writes carry the single post-commit
    pair).  ``seq`` is the global write sequence number for writes, and
    for reads the *watermark*: how many writes had committed when the
    read ran -- the exact position a serial replay must execute the read
    at (tests/test_serve_differential.py).

    A server hands out one of these per request and callers keep them by
    the thousand, so the layout is ``__slots__`` (a hand-written
    dataclass: ``dataclass(slots=True)`` needs Python 3.10), a query's
    or write's ``value`` is a slotted :class:`QueryValue` /
    :class:`DmlValue` mapping, and the ``statistics`` digest inside it
    is one object shared by every response at the same epochs -- treat
    ``value`` as read-only.
    """

    __slots__ = (
        "kind",
        "ok",
        "tenant",
        "value",
        "error",
        "code",
        "epoch",
        "seq",
        "elapsed_seconds",
    )

    def __init__(
        self,
        kind: str,
        ok: bool,
        tenant: str = "default",
        value: Any = None,
        error: Optional[str] = None,
        code: Optional[str] = None,
        epoch: Optional[Tuple[Tuple[str, int], ...]] = None,
        seq: Optional[int] = None,
        elapsed_seconds: float = 0.0,
    ) -> None:
        self.kind = kind
        self.ok = ok
        self.tenant = tenant
        self.value = value
        self.error = error
        self.code = code
        self.epoch = epoch
        self.seq = seq
        self.elapsed_seconds = elapsed_seconds

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__
        )
        return f"Response({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name)
            for name in self.__slots__
        )

    __hash__ = None  # type: ignore[assignment]  # mutable, compared by value

    def to_dict(self) -> Dict:
        """JSON-serializable form (CLI ``--json``, bench artifacts)."""
        return {
            "kind": self.kind,
            "ok": self.ok,
            "tenant": self.tenant,
            "value": plain(self.value),
            "error": self.error,
            "code": self.code,
            "epoch": (
                [list(pair) for pair in self.epoch]
                if self.epoch is not None
                else None
            ),
            "seq": self.seq,
            "elapsed_seconds": self.elapsed_seconds,
        }

    def comparable(self) -> Dict:
        """The schedule-invariant projection compared bit-for-bit by the
        differential tests: everything except wall-clock latency."""
        data = self.to_dict()
        data.pop("elapsed_seconds")
        return data
