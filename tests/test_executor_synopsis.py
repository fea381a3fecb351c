"""Differential tests for the synopsis-backed executor path.

``Executor(use_synopsis=True)`` resolves predicate-free absolute paths
through the per-document synopsis (compiled-matcher bitmap over interned
path ids, then a node-id lookup) instead of a tree walk.  The contract:
ExecutionResults are **bit-identical** to the walking executor -- rows,
docs examined, index entries scanned, used indexes, and the rendered
output -- across every suite workload, including the DML statements that
mutate the database mid-stream.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optimizer.executor import Executor, _path_nodes
from repro.query.workload import Workload
from repro.workloads import synthetic, tpox, xmark
from repro.xmlmodel.parser import parse_document
from repro.xpath.parser import parse_xpath


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
    path = parse_xpath(path_text)
    fast = _path_nodes(document, path, use_synopsis=True)
    slow = _path_nodes(document, path, use_synopsis=False)
    assert [n.node_id for n in fast] == [n.node_id for n in slow]
    assert [n.string_value() for n in fast] == [n.string_value() for n in slow]
