"""Workloads: statements with frequencies.

The paper's benefit formula weights each unique statement by its frequency
of occurrence in the workload (Section III):

    Benefit(x1..xn; W) = sum_s freq_s * (s_old - s_new) - sum_i mc(x_i, s)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Sequence, Union

from repro.query.model import Statement
from repro.query.parser import QuerySyntaxError, parse_statement
from repro.robustness.errors import WorkloadParseError
from repro.robustness.faults import maybe_inject


def _parse_once(text: str, parsed: Dict[str, Statement]) -> Statement:
    """``parse_statement(text)``, remembered in ``parsed`` -- the dict of
    one ``from_*`` call, never a process-wide cache.  A text that fails
    to parse is not remembered, so every occurrence reports its error."""
    statement = parsed.get(text)
    if statement is None:
        statement = parsed[text] = parse_statement(text)
    return statement


@dataclass(frozen=True)
class WorkloadEntry:
    """One unique statement and its frequency."""

    statement: Statement
    frequency: float = 1.0

    def __post_init__(self) -> None:
        if self.frequency <= 0:
            raise ValueError("frequency must be positive")


class Workload:
    """An ordered set of workload entries."""

    def __init__(self, entries: Iterable[WorkloadEntry] = ()) -> None:
        self.entries: List[WorkloadEntry] = list(entries)
        #: Per-statement ingestion diagnostics (filled by lenient
        #: :meth:`from_text`/:meth:`from_file`); the advisor copies these
        #: onto every Recommendation it produces.
        self.diagnostics: List[str] = []

    @classmethod
    def from_statements(
        cls,
        statements: Sequence[Union[str, Statement]],
        frequencies: Sequence[float] = (),
    ) -> "Workload":
        """Build a workload from statement texts or objects.

        ``frequencies`` (if given) must parallel ``statements``.  A text
        that occurs more than once is parsed once; its entries share the
        one immutable statement object.
        """
        if frequencies and len(frequencies) != len(statements):
            raise ValueError("frequencies must parallel statements")
        entries = []
        parsed: Dict[str, Statement] = {}
        for position, statement in enumerate(statements):
            if isinstance(statement, str):
                statement = _parse_once(statement, parsed)
            freq = frequencies[position] if frequencies else 1.0
            entries.append(WorkloadEntry(statement, freq))
        return cls(entries)

    @classmethod
    def from_text(cls, text: str, strict: bool = False) -> "Workload":
        """Parse workload text: statements separated by ``;`` lines.

        A separator line may carry ``@ <frequency>`` (``; @ 10`` gives
        the preceding statement frequency 10).

        In the default lenient mode a malformed statement is *skipped*
        and a diagnostic recorded in :attr:`diagnostics` (degraded
        ingestion, docs/robustness.md); with ``strict=True`` the first
        bad statement raises
        :class:`~repro.robustness.errors.WorkloadParseError` naming the
        statement number.  As in :meth:`from_statements`, repeated texts
        share one parsed statement.
        """
        workload = cls()
        parsed: Dict[str, Statement] = {}
        pieces: List[tuple] = []  # (statement_text, frequency)
        current: List[str] = []
        for line in text.splitlines():
            stripped = line.strip()
            if stripped.startswith(";"):
                frequency_text = stripped[1:].strip()
                statement_text = "\n".join(current).strip()
                if statement_text:
                    pieces.append((statement_text, frequency_text))
                current = []
            else:
                current.append(line)
        trailing = "\n".join(current).strip()
        if trailing:
            pieces.append((trailing, ""))

        for number, (statement_text, frequency_text) in enumerate(pieces, 1):
            try:
                maybe_inject("workload.parse")
                frequency = 1.0
                if frequency_text.startswith("@"):
                    raw = frequency_text[1:].strip()
                    try:
                        frequency = float(raw)
                    except ValueError:
                        raise QuerySyntaxError(
                            f"bad frequency {raw!r} (expected a number "
                            f"after '@')"
                        ) from None
                    if frequency <= 0:
                        raise QuerySyntaxError(
                            f"frequency must be positive, got {frequency}"
                        )
                workload.add(_parse_once(statement_text, parsed), frequency)
            except (QuerySyntaxError, WorkloadParseError) as exc:
                preview = " ".join(statement_text.split())[:60]
                message = (
                    f"statement {number} skipped ({exc}): {preview!r}"
                )
                if strict:
                    raise WorkloadParseError(
                        f"statement {number}: {exc}"
                    ) from exc
                workload.diagnostics.append(message)
        return workload

    @classmethod
    def from_file(cls, path: str, strict: bool = False) -> "Workload":
        """Read and parse a ``;``-separated workload file (see
        :meth:`from_text`)."""
        with open(path) as handle:
            return cls.from_text(handle.read(), strict=strict)

    def add(self, statement: Union[str, Statement], frequency: float = 1.0) -> None:
        if isinstance(statement, str):
            statement = parse_statement(statement)
        self.entries.append(WorkloadEntry(statement, frequency))

    def queries(self) -> List[WorkloadEntry]:
        """Entries that are read-only queries (including joins)."""
        from repro.query.model import JoinQuery, Query

        return [
            e
            for e in self.entries
            if isinstance(e.statement, (Query, JoinQuery))
        ]

    def updates(self) -> List[WorkloadEntry]:
        """Entries that modify data (insert/delete)."""
        from repro.query.model import JoinQuery, Query

        return [
            e
            for e in self.entries
            if not isinstance(e.statement, (Query, JoinQuery))
        ]

    def subset(self, count: int) -> "Workload":
        """The first ``count`` entries (training-prefix experiments,
        Figures 4 and 5)."""
        return Workload(self.entries[:count])

    def __iter__(self) -> Iterator[WorkloadEntry]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __add__(self, other: "Workload") -> "Workload":
        return Workload(self.entries + other.entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Workload {len(self.entries)} entries>"
