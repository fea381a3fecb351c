"""What-if analysis: per-statement impact report of a configuration.

Relational design advisors expose a "what-if" interface on top of virtual
indexes [8, 9]; the paper's Evaluate Indexes mode is exactly that for XML.
:func:`analyze` packages it for users: for every workload statement it
reports the cost without the configuration, the cost with it (virtual),
which indexes the plan would use, and the plan itself.

Analysis runs through a shared
:class:`~repro.optimizer.session.WhatIfSession`: when the caller passes
the session an advisor already used for ``recommend()``, every
(statement, configuration) pair the search already costed is served from
the session cache and the analysis issues **zero** new optimizer calls
for them.  The session names virtual indexes canonically; the report
translates those names to ``<name_prefix>_<i>`` for display.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.core.candidates import CandidateIndex
from repro.core.config import IndexConfiguration
from repro.optimizer.session import WhatIfSession
from repro.query.workload import Workload
from repro.storage.index import IndexValueType
from repro.xpath.patterns import parse_pattern


@dataclass
class StatementImpact:
    """What-if result for one workload statement."""

    statement_text: str
    frequency: float
    cost_before: float
    cost_after: float
    used_indexes: Tuple[str, ...]
    plan_before: str
    plan_after: str

    @property
    def benefit(self) -> float:
        return self.frequency * (self.cost_before - self.cost_after)

    @property
    def speedup(self) -> float:
        if self.cost_after <= 0:
            return float("inf")
        return self.cost_before / self.cost_after


@dataclass
class WhatIfReport:
    """What-if results for a whole workload."""

    impacts: List[StatementImpact]
    index_names: List[str]

    @property
    def total_benefit(self) -> float:
        return sum(impact.benefit for impact in self.impacts)

    def unused_indexes(self) -> List[str]:
        """Indexes in the configuration no statement's plan uses -- dead
        weight the advisor's heuristics try to avoid."""
        used = set()
        for impact in self.impacts:
            used.update(impact.used_indexes)
        return [name for name in self.index_names if name not in used]

    def summary(self) -> str:
        lines = [
            f"{'freq':>6} {'before':>10} {'after':>10} {'speedup':>8}  indexes used"
        ]
        for impact in self.impacts:
            indexes = ", ".join(impact.used_indexes) or "-"
            lines.append(
                f"{impact.frequency:>6.1f} {impact.cost_before:>10.2f} "
                f"{impact.cost_after:>10.2f} {impact.speedup:>8.2f}  {indexes}"
            )
        lines.append(f"total benefit: {self.total_benefit:.2f}")
        unused = self.unused_indexes()
        if unused:
            lines.append(f"unused indexes: {', '.join(unused)}")
        return "\n".join(lines)


def configuration_from_specs(
    specs: Iterable[str], collection: str
) -> IndexConfiguration:
    """The configuration named by ``PATTERN[:TYPE]`` index specs on
    ``collection``.  TYPE ``numeric``, ``numerical`` or ``double`` (any
    case) makes a numeric index; any other TYPE, or none, a string
    index."""
    candidates = []
    for spec in specs:
        pattern_text, type_text = (
            spec.rsplit(":", 1) if ":" in spec else (spec, "string")
        )
        value_type = (
            IndexValueType.NUMERIC
            if type_text.lower() in ("numeric", "numerical", "double")
            else IndexValueType.STRING
        )
        candidates.append(
            CandidateIndex(parse_pattern(pattern_text), value_type, collection)
        )
    return IndexConfiguration(candidates)


def analyze(
    database,
    workload: Workload,
    configuration: IndexConfiguration,
    session: Optional[WhatIfSession] = None,
    name_prefix: str = "whatif",
) -> WhatIfReport:
    """Evaluate ``configuration`` statement by statement as virtual
    indexes; nothing is built.

    Pass the ``session`` of the advisor that produced the configuration
    to reuse its warm cost cache; without one the analysis runs on a
    fresh session over ``database``.
    """
    if session is None:
        session = WhatIfSession(database)
    definitions = session.definitions_for(configuration)
    display = {
        definition.name: f"{name_prefix}_{i}"
        for i, definition in enumerate(definitions)
    }
    impacts: List[StatementImpact] = []
    with session.phase("whatif"):
        for entry in workload:
            before = session.evaluate(entry.statement)
            after = session.evaluate(entry.statement, definitions)
            impacts.append(
                StatementImpact(
                    statement_text=entry.statement.describe(),
                    frequency=entry.frequency,
                    cost_before=before.estimated_cost,
                    cost_after=after.estimated_cost,
                    used_indexes=tuple(
                        display.get(name, name)
                        for name in after.used_indexes
                    ),
                    plan_before=before.explain(),
                    plan_after=after.explain(),
                )
            )
    return WhatIfReport(
        impacts=impacts,
        index_names=[display[d.name] for d in definitions],
    )
