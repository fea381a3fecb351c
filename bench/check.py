"""Output checks, run after every workload (there is no switch to skip
them).  A violation is recorded through ``journey.fail`` -- it counts in
``failed_ops_ratio``, clears ``correct`` and makes the run exit
non-zero.  The checks also score ``benefit_fraction``, the guard against
buying speed with worse recommendations.
"""

from __future__ import annotations

from typing import Dict

from repro.core.advisor import IndexAdvisor
from repro.core.config import IndexConfiguration
from repro.optimizer.executor import Executor
from repro.query.parser import parse_statement
from repro.query.workload import Workload

import inputs
import spec

EPSILON = 1e-9


def all_basic_benefit(database, workload: Workload, compress="off") -> float:
    """Benefit of indexing every basic candidate (the paper's 'All
    Index' configuration): the denominator of ``benefit_fraction``."""
    advisor = IndexAdvisor(database, workload, compress=compress)
    try:
        return advisor.evaluator.benefit(advisor.all_index_configuration())
    finally:
        advisor.session.close()


def advise_sweep(journey) -> None:
    """Budget fit and ``truncated`` were checked op by op; here:
    ``ilp`` benefit >= ``greedy_heuristics`` benefit on the same op."""
    by_setting: Dict[tuple, Dict[str, float]] = {}
    for op_id, (_, benefit, _, _) in journey.results.items():
        key, _, algorithm, _, budget = journey.ops[op_id]
        by_setting.setdefault((key, budget), {})[algorithm] = benefit
        journey.benefit_fractions.append(benefit / journey.all_benefit[key])
    for setting, benefits in sorted(by_setting.items()):
        ilp, greedy = benefits.get("ilp"), benefits.get("greedy_heuristics")
        if ilp is not None and greedy is not None and ilp < greedy - EPSILON:
            journey.fail(
                f"ilp benefit {ilp} < greedy_heuristics {greedy} at {setting}",
                counted=False,
            )


def advise_stream(journey) -> None:
    database = journey.databases["mixed"]
    all_benefit = {
        # Exact compression is loss free, so this is the all-basic
        # benefit on the full raw stream at a quarter of its cost.
        index: all_basic_benefit(
            database, Workload.from_statements(journey.texts[index]), "exact"
        )
        for index in {journey.ops[op_id][1] for op_id in journey.results}
    }
    for op_id, (_, _, full_benefit, _) in journey.results.items():
        journey.benefit_fractions.append(
            full_benefit / all_benefit[journey.ops[op_id][1]]
        )


def serve(journey) -> None:
    """A seeded 1-in-N sample of served queries must return exactly the
    rows of a scan on an index-free copy at the same commit watermark;
    the ``SDOC`` document count and the journal must add up."""
    responses = journey.responses
    served = sorted(
        (responses[number].seq, number)
        for number in sorted(responses)
        if journey.request(number)["kind"] == "query" and responses[number].ok
    )
    copy = inputs.mixed_database(
        journey.scale.mixed_tpox, journey.scale.mixed_xmark
    )
    executor = Executor(copy)
    journal = iter(sorted(journey.server.journal, key=lambda e: e["seq"]))
    applied = 0
    for watermark, number in served[:: spec.CHECK_QUERY_SAMPLE]:
        while applied < watermark:
            executor.execute(parse_statement(next(journal)["text"]))
            applied += 1
        expected = executor.execute(
            parse_statement(journey.request(number)["text"]),
            collect_output=True,
        )
        value = responses[number].value
        if value["rows"] != expected.rows or sorted(value["output"]) != sorted(
            expected.output
        ):
            journey.fail(
                f"query {number} returned {value['rows']} rows, a scan at "
                f"watermark {watermark} returns {expected.rows}",
                counted=False,
            )
    inserts = deletes = dml = 0
    for number, response in responses.items():
        request = journey.request(number)
        if request["kind"] == "dml" and response.ok:
            dml += 1
            if request["text"].startswith("insert"):
                inserts += response.value["rows"]
            else:
                deletes += response.value["rows"]
    documents = len(journey.database.collection("SDOC"))
    baseline = journey.baseline
    if documents != baseline["documents"] + inserts - deletes:
        journey.fail(
            f"SDOC holds {documents} documents, expected "
            f"{baseline['documents']} + {inserts} - {deletes}",
            counted=False,
        )
    if len(journey.server.journal) != baseline["journal"] + dml:
        journey.fail(
            f"journal has {len(journey.server.journal)} entries, expected "
            f"{baseline['journal'] + dml}",
            counted=False,
        )


def replay(journey, daemon, label) -> None:
    """One finished daemon replay: no failed or degraded cycle, and a
    configuration within budget; scores what it converged to."""
    counters = daemon.counters
    for _ in range(counters["failed_cycles"] + counters["degraded_cycles"]):
        journey.fail(f"replay {label}: failed or degraded cycle", counted=False)
    configuration = IndexConfiguration(
        entry.candidate for entry in daemon.materialized.values()
    )
    size = sum(candidate.size_bytes for candidate in configuration)
    if size > journey.budget:
        journey.fail(
            f"replay {label}: configuration {size} B over budget "
            f"{journey.budget} B",
            counted=False,
        )
    advisor = IndexAdvisor(journey.pristine, daemon.window.workload())
    try:
        everything = advisor.evaluator.benefit(
            advisor.all_index_configuration()
        )
        if everything > 0:
            journey.benefit_fractions.append(
                advisor.evaluator.benefit(configuration) / everything
            )
    finally:
        advisor.session.close()


def run(journey) -> None:
    """The end-of-run check of ``journey`` (``online_drift`` checks each
    replay as it finishes, through :func:`replay`)."""
    checker = {
        "advise_sweep": advise_sweep,
        "advise_stream": advise_stream,
        "serve_read_heavy": serve,
        "serve_write_heavy": serve,
    }.get(journey.name)
    if checker is not None:
        checker(journey)
