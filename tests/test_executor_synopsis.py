"""Differential tests for the synopsis-backed executor path.

``Executor(use_synopsis=True)`` resolves predicate-free absolute paths
through the per-document synopsis (compiled-matcher bitmap over interned
path ids, then a node-id lookup) instead of a tree walk, and answers
linear residual predicates from the synopsis slots' typed values.  The
contract:
ExecutionResults are **bit-identical** to the walking executor -- rows,
docs examined, index entries scanned, used indexes, and the rendered
output -- across every suite workload, including the DML statements that
mutate the database mid-stream.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optimizer.executor import Executor
from repro.query.parser import parse_statement
from repro.query.workload import Workload
from repro.storage import Database, IndexDefinition
from repro.storage.synopsis import pattern_nodes
from repro.workloads import synthetic, tpox, xmark
from repro.xmlmodel.parser import parse_document
from repro.xpath.evaluator import evaluate_path
from repro.xpath.parser import parse_xpath
from repro.xpath.patterns import parse_pattern
from tests import test_answer_oracle as oracle


def build_tpox():
    db = tpox.build_database(
        num_securities=25, num_orders=25, num_customers=12, seed=3
    )
    workload = tpox.tpox_workload(
        num_securities=25, seed=3, include_updates=True, update_frequency=0.5
    )
    return db, workload


def build_synthetic():
    db = tpox.build_database(
        num_securities=25, num_orders=25, num_customers=12, seed=3
    )
    workload = Workload([])
    for query in synthetic.random_path_queries(db, "SDOC", 8, seed=5):
        workload.add(query)
    return db, workload


def build_xmark():
    db = xmark.build_database(
        num_items=20, num_persons=20, num_auctions=20, seed=3
    )
    return db, xmark.xmark_workload(seed=3)


BENCHMARKS = {
    "tpox": build_tpox,
    "synthetic": build_synthetic,
    "xmark": build_xmark,
}


def run_workload(build, use_synopsis):
    """Execute a whole workload (queries AND updates, in order) against a
    freshly built database and return the comparable result tuples."""
    database, workload = build()
    executor = Executor(database, use_synopsis=use_synopsis)
    assert executor.use_synopsis is use_synopsis
    results = []
    for entry in workload.entries:
        result = executor.execute(entry.statement, collect_output=True)
        results.append(
            (
                result.rows,
                result.docs_examined,
                result.used_indexes,
                result.index_entries_scanned,
                tuple(result.output),
            )
        )
    return results


@pytest.mark.parametrize("bench_name", sorted(BENCHMARKS))
def test_synopsis_executor_is_bit_identical(bench_name):
    build = BENCHMARKS[bench_name]
    walking = run_workload(build, use_synopsis=False)
    synopsis = run_workload(build, use_synopsis=True)
    assert synopsis == walking


def test_fast_path_is_the_default():
    db = tpox.build_database(
        num_securities=5, num_orders=5, num_customers=3, seed=3
    )
    assert Executor(db).use_synopsis is True
    assert Executor(db, use_synopsis=False).use_synopsis is False


# ---------------------------------------------------------------------------
# Property: for ANY linear absolute path, bitmap resolution == tree walk
# ---------------------------------------------------------------------------

TAGS = ("a", "b", "c")
TEXTS = ("", "red", "7", "-3.5")

texts = st.sampled_from(TEXTS)


@st.composite
def elements(draw, depth=0):
    tag = draw(st.sampled_from(TAGS))
    attr = draw(st.sampled_from(("", ' id="x"', ' k="9"')))
    text = draw(texts)
    children = (
        []
        if depth >= 2
        else draw(st.lists(elements(depth=depth + 1), max_size=3))
    )
    return f"<{tag}{attr}>{text}{''.join(children)}</{tag}>"


@st.composite
def linear_paths(draw):
    steps = draw(
        st.lists(
            st.tuples(st.sampled_from(("/", "//")), st.sampled_from(TAGS + ("*",))),
            min_size=1,
            max_size=3,
        )
    )
    return "".join(axis + name for axis, name in steps)


@settings(max_examples=60, deadline=None)
@given(text=elements(), path_text=linear_paths())
def test_pattern_nodes_equal_tree_walk(text, path_text):
    document = parse_document(text, 0)
    fast = pattern_nodes(document, parse_pattern(path_text))
    slow = evaluate_path(document, parse_xpath(path_text))
    assert [n.node_id for n in fast] == [n.node_id for n in slow]
    assert [n.string_value() for n in fast] == [n.string_value() for n in slow]


# ---------------------------------------------------------------------------
# Residual predicates: conditions answered from typed synopsis slots
# ---------------------------------------------------------------------------

def _residual(text):
    from repro.optimizer.executor import _compile_query

    return _compile_query(parse_statement(text))


@pytest.mark.parametrize(
    "text",
    [
        "for $x in X('C')/a/*[b > 3] return $x",
        "for $x in X('C')/a/* where $x//b > 3 and $x/@id return $x",
        "for $x in X('C')/a[b and c = \"red\"] where $x//@id = 7 return $x",
    ],
)
def test_linear_residuals_compile_to_synopsis_conditions(text):
    residual = _residual(text)
    assert residual.binding is not None and residual.conditions


@pytest.mark.parametrize(
    "text",
    [
        "for $x in X('C')//b where $x/b > 3 return $x",  # // binding path
        "for $x in X('C')/a/b where $x = 7 return $x",  # empty clause path
        "for $x in X('C')/a/*[b = 1 or c = 2] return $x",  # or predicate
        "for $x in X('C')/a/*[not(b)] return $x",  # not predicate
        'for $x in X(\'C\')/a/*[contains(b, "x")] return $x',  # function
        "for $x in X('C')/a[b]/c where $x/b > 1 return $x",  # mid-path predicate
        "for $x in X('C')/a/* where $x/b[c] return $x",  # predicate in clause
    ],
)
def test_other_shapes_keep_the_tree_walk(text):
    assert _residual(text).conditions is None


@settings(max_examples=60, deadline=None)
@given(
    initial=st.lists(oracle.documents, min_size=1, max_size=5),
    texts=st.lists(oracle.queries(), min_size=1, max_size=4),
    configuration=oracle.configurations,
)
def test_residuals_examine_and_scan_what_the_walk_does(
    initial, texts, configuration
):
    """Not just the answer: rows, documents examined, index entries
    scanned and output all equal the tree walk's."""
    database = Database("d")
    database.create_collection("C")
    for text in initial:
        database.insert_document("C", text)
    for position, (pattern, value_type) in enumerate(configuration):
        database.create_index(
            IndexDefinition(
                f"ix{position}", "C", parse_pattern(pattern), value_type
            )
        )
    statements = [parse_statement(text) for text in texts]

    def results(use_synopsis):
        executor = Executor(database, use_synopsis=use_synopsis)
        return [
            (
                result.rows,
                result.docs_examined,
                result.index_entries_scanned,
                result.output,
            )
            for result in (
                executor.execute(statement, collect_output=True)
                for statement in statements
            )
        ]

    assert results(True) == results(False)
