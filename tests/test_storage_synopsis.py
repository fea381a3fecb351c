"""Differential tests for the incremental storage engine (synopsis PR).

The equivalence contract (storage/statistics.py): delta-maintained
:class:`DataStatistics` must agree with :func:`collect_statistics_rescan`
-- the original node-by-node scan, kept as the reference -- after ANY
interleaving of inserts and deletes:

* exact quantities (counts, doc counts, totals) identically, always;
* bounded summary structures (samples, distinct sets, string
  frequencies, min/max) identically and *with no repair* while the path
  is below its caps -- a delete retracts the document's values exactly;
  at or over a cap the summary goes ``dirty`` and is identical again *at
  the probe boundary*: a keyed ``stats.summaries[path]`` access rebuilds
  it from the live synopses before returning it;
* ``path_counts`` key order identically (pattern aggregation order, and
  therefore float summation order, is part of bit-identity).

Real index maintenance rides the same synopses; after every DML
operation each built index must hold exactly the entries a from-scratch
``bulk_load`` would.
"""

import pickle
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optimizer.session import WhatIfSession
from repro.query import parse_statement
from repro.storage import Database, IndexDefinition, IndexValueType
from repro.storage.index import PathIndex, _walk_with_paths
from repro.storage import statistics
from repro.storage.statistics import (
    DataStatistics,
    collect_statistics,
    collect_statistics_rescan,
)
from repro.storage.synopsis import build_synopsis, get_synopsis
from repro.xmlmodel.parser import parse_document
from repro.xpath import parse_pattern
from repro.xpath.ast import Literal

# ---------------------------------------------------------------------------
# Random document generation (no "nan"/"inf": float("nan") would poison
# sample-sort determinism, and neither scan path treats them specially).
# ---------------------------------------------------------------------------

TAGS = ("a", "b", "c")
TEXTS = ("", "red", "blue", "x y", "007", "-3.5", "42", "zz9")

texts = st.sampled_from(TEXTS)


@st.composite
def elements(draw, depth=0):
    tag = draw(st.sampled_from(TAGS))
    attrs = draw(
        st.lists(
            st.tuples(st.sampled_from(("id", "k")), texts),
            max_size=2,
            unique_by=lambda item: item[0],
        )
    )
    text = draw(texts)
    children = (
        []
        if depth >= 2
        else draw(st.lists(elements(depth=depth + 1), max_size=3))
    )
    attr_text = "".join(f' {name}="{value}"' for name, value in attrs)
    body = text + "".join(children)
    return f"<{tag}{attr_text}>{body}</{tag}>"


documents = elements()

dml_op = st.tuples(
    st.sampled_from(("insert", "delete")), documents, st.integers(0, 99)
)
ops = st.lists(dml_op, min_size=1, max_size=8)

PROBE_PATTERNS = ("//a", "//b", "/a//*", "//@id")


# ---------------------------------------------------------------------------
# Differential assertions
# ---------------------------------------------------------------------------

def assert_summary_fields_equal(summary, expected):
    assert summary.dirty is False
    assert summary.count == expected.count
    assert summary.numeric_count == expected.numeric_count
    assert summary.numeric_min == expected.numeric_min
    assert summary.numeric_max == expected.numeric_max
    assert summary.total_string_bytes == expected.total_string_bytes
    assert summary.numeric_sample == expected.numeric_sample
    assert summary.string_sample == expected.string_sample
    assert summary.string_freq == expected.string_freq
    assert summary._distinct == expected._distinct
    assert summary.distinct == expected.distinct
    assert summary.avg_string_bytes == expected.avg_string_bytes


def assert_summaries_equal(live, reference, tag_path):
    """Probe one summary through the cleaning access and compare every
    field against the rescan reference."""
    probed = live.summaries[tag_path]  # keyed access repairs if dirty
    assert_summary_fields_equal(probed, reference.summaries[tag_path])


def below_caps(summary):
    """No bounded structure of ``summary`` (``None``: the path is not in
    the data) has reached its cap."""
    return summary is None or (
        summary._sample_stride_state == 0
        and len(summary.numeric_sample) < statistics.MAX_SAMPLE
        and len(summary.string_sample) < statistics.MAX_SAMPLE
        and len(summary._distinct) < statistics.MAX_SAMPLE
        and len(summary.string_freq) < statistics.MAX_STRING_FREQ
    )


def assert_exact_without_repair(db, before, already_dirty=(), name="C"):
    """The no-repair half of the contract, checked *before* any cleaning
    access: the dictionaries already are the rescan's, key order
    included; a summary that is not dirty equals the rescan's field for
    field; and a path below its caps on both sides of the step (``before``
    = the rescan reference taken before it) is not dirty unless it
    already was.  Returns the rescan reference of the current state."""
    live = db.runstats(name)
    reference = collect_statistics_rescan(db.collection(name))
    assert list(live.path_counts.items()) == list(reference.path_counts.items())
    assert list(live.path_doc_counts) == list(reference.path_counts)
    assert live.path_doc_counts == reference.path_doc_counts
    assert list(dict.keys(live.summaries)) == list(reference.path_counts)
    assert live._first_holders == (
        collect_statistics(db.collection(name))._first_holders
    )
    dirty = set()
    for tag_path, expected in dict.items(reference.summaries):
        summary = dict.__getitem__(live.summaries, tag_path)
        if summary.dirty:
            assert tag_path in already_dirty or not (
                below_caps(expected)
                and below_caps(dict.get(before.summaries, tag_path))
            ), tag_path
            dirty.add(tag_path)
        else:
            assert_summary_fields_equal(summary, expected)
    assert live._dirty_paths == dirty
    return reference


def assert_stats_match_rescan(db, name="C"):
    live = db.runstats(name)
    reference = collect_statistics_rescan(db.collection(name))
    assert live.doc_count == reference.doc_count
    assert live.total_nodes == reference.total_nodes
    assert live.total_elements == reference.total_elements
    # Key order is part of the contract (float summation order).
    assert list(live.path_counts) == list(reference.path_counts)
    assert live.path_counts == reference.path_counts
    assert live.path_doc_counts == reference.path_doc_counts
    for tag_path in reference.path_counts:
        assert_summaries_equal(live, reference, tag_path)
    for text in PROBE_PATTERNS:
        pattern = parse_pattern(text)
        assert live.matching_paths(pattern) == reference.matching_paths(pattern)
        assert live.document_frequency(pattern) == reference.document_frequency(
            pattern
        )
        for value_type in IndexValueType:
            assert live.derive_index_statistics(
                pattern, value_type
            ) == reference.derive_index_statistics(pattern, value_type)
        for op, literal in (
            ("=", Literal(7.0)),
            (">=", Literal("blue")),
            ("starts-with", Literal("x")),
        ):
            assert live.selectivity(pattern, op, literal) == reference.selectivity(
                pattern, op, literal
            )


def assert_indexes_match_bulk_load(db, name="C"):
    for index in db.indexes.values():
        if index.definition.collection != name:
            continue
        fresh = PathIndex(index.definition)
        fresh.bulk_load(db.collection(name))
        assert index.entries == fresh.entries, index.definition.name


def apply_op(db, op, name="C"):
    kind, text, pick = op
    collection = db.collection(name)
    live_ids = [d.doc_id for d in collection]
    if kind == "delete" and live_ids:
        db.delete_document(name, live_ids[pick % len(live_ids)])
    else:
        db.insert_document(name, text)


# ---------------------------------------------------------------------------
# The hypothesis harness: random DML interleavings
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(initial=st.lists(documents, min_size=1, max_size=4), dml=ops)
def test_dml_deltas_match_rescan(initial, dml):
    db = Database("t")
    db.create_collection("C")
    for text in initial:
        db.insert_document("C", text)
    db.runstats("C")  # prime delta-capable statistics
    db.create_index(
        IndexDefinition("sx", "C", parse_pattern("//*"), IndexValueType.STRING)
    )
    db.create_index(
        IndexDefinition("nx", "C", parse_pattern("//b"), IndexValueType.NUMERIC)
    )
    rescans_before = db.stats_rescans
    reference = collect_statistics_rescan(db.collection("C"))
    for op in dml:
        apply_op(db, op)
        reference = assert_exact_without_repair(db, reference)
        assert_stats_match_rescan(db)
        assert_indexes_match_bulk_load(db)
    # The whole interleaving was absorbed as deltas: the only rescan on
    # record is the priming one.  Nothing here comes near a cap, so no
    # summary ever went dirty and none was rebuilt.
    assert db.stats_rescans == rescans_before
    assert db.stats_delta_applies >= len(dml)
    assert db.storage_stats()["summary_rebuilds"] == 0


@settings(max_examples=60, deadline=None)
@given(
    initial=st.lists(documents, min_size=1, max_size=4),
    dml=st.lists(dml_op, min_size=1, max_size=14),
    max_sample=st.integers(1, 6),
    max_string_freq=st.integers(1, 6),
    probe_every=st.sampled_from((1, 2, 5)),
)
def test_dml_deltas_match_rescan_across_the_caps(
    initial, dml, max_sample, max_string_freq, probe_every
):
    """The same harness with the caps lowered to single digits, so random
    interleavings cross the exact <-> fallback boundary in both
    directions: inserts push a path over a cap, deletes take it back
    under, and from the rebuild on it is retracted exactly again.  The
    cleaning probes run every ``probe_every`` steps, so deltas also land
    on summaries that are still dirty."""
    with mock.patch.object(
        statistics, "MAX_SAMPLE", max_sample
    ), mock.patch.object(statistics, "MAX_STRING_FREQ", max_string_freq):
        db = Database("t")
        db.create_collection("C")
        for text in initial:
            db.insert_document("C", text)
        live = db.runstats("C")
        reference = collect_statistics_rescan(db.collection("C"))
        rebuilds = 0
        for step, op in enumerate(dml, 1):
            already_dirty = set(live._dirty_paths)
            apply_op(db, op)
            # a delta never rebuilds, it only marks
            assert live.summary_rebuilds == rebuilds
            reference = assert_exact_without_repair(
                db, reference, already_dirty
            )
            if step % probe_every and step < len(dml):
                continue
            rebuilds += len(live._dirty_paths)
            assert_stats_match_rescan(db)  # probes repair what is dirty
            assert live.summary_rebuilds == rebuilds
            assert live._dirty_paths == set()
        assert db.runstats("C") is live
        assert db.stats_rescans == 1


@settings(max_examples=15, deadline=None)
@given(initial=st.lists(documents, min_size=2, max_size=4), dml=ops)
def test_stats_primed_after_dml_match_rescan(initial, dml):
    """Statistics first collected AFTER the DML (one synopsis merge over
    the surviving documents) also equal the reference rescan."""
    db = Database("t")
    db.create_collection("C")
    for text in initial:
        db.insert_document("C", text)
    for op in dml:
        apply_op(db, op)
    assert_stats_match_rescan(db)


# ---------------------------------------------------------------------------
# The synopsis itself
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(text=documents)
def test_synopsis_mirrors_reference_walk(text):
    """One synopsis walk records exactly the (path, node, value) stream of
    the reference walk, grouped by first-seen path."""
    document = parse_document(text, 0)
    synopsis = build_synopsis(document)
    seen = {}
    order = []
    for node, tag_path in _walk_with_paths(document):
        if tag_path not in seen:
            seen[tag_path] = ([], [])
            order.append(tag_path)
        ids, values = seen[tag_path]
        ids.append(node.node_id)
        values.append(
            node.string_value() if node.name == tag_path[-1] else node.value or ""
        )
    assert synopsis.tag_paths == order
    for slot, tag_path in enumerate(synopsis.tag_paths):
        ids, values = seen[tag_path]
        assert synopsis.node_ids[slot] == ids
        assert synopsis.node_ids[slot] == sorted(ids)  # document order
        assert synopsis.values[slot] == values
        count, numeric, string_bytes = synopsis.deltas[slot]
        assert count == len(values)
        assert string_bytes == sum(len(v) for v in values)
    assert synopsis.node_count == document.node_count()


def test_synopsis_pickle_roundtrip():
    document = parse_document("<a id='7'><b>4.5</b><c>red</c></a>", 3)
    synopsis = get_synopsis(document)
    synopsis.path_ids()  # populate the process-local cache
    clone = pickle.loads(pickle.dumps(synopsis))
    assert clone.tag_paths == synopsis.tag_paths
    assert clone.node_ids == synopsis.node_ids
    assert clone.values == synopsis.values
    assert clone.deltas == synopsis.deltas
    assert clone.node_count == synopsis.node_count
    assert clone.element_count == synopsis.element_count
    assert clone._path_ids is None  # interned ids never cross processes
    assert clone.slot_of(("a", "b")) == synopsis.slot_of(("a", "b"))
    assert clone.path_ids() == synopsis.path_ids()  # same process, same table


def test_document_pickle_drops_cached_synopsis():
    document = parse_document("<a><b>1</b></a>", 5)
    get_synopsis(document)
    clone = pickle.loads(pickle.dumps(document))
    assert clone._synopsis is None
    assert clone.doc_id == 5
    assert [n.node_id for n in clone.nodes] == [
        n.node_id for n in document.nodes
    ]
    assert get_synopsis(clone).values == get_synopsis(document).values


# ---------------------------------------------------------------------------
# Rebuild-on-dirty bookkeeping
# ---------------------------------------------------------------------------

def _numbered_db(count=6):
    db = Database("t")
    db.create_collection("C")
    for y in range(count):
        db.insert_document("C", f"<a><b>{y}</b><c>w{y}</c></a>")
    return db


def test_delete_below_the_caps_retracts_exactly():
    db = _numbered_db()
    stats = db.runstats("C")
    db.delete_document("C", 2)
    summary = dict.__getitem__(stats.summaries, ("a", "b"))
    assert not summary.dirty
    assert summary.count == 5
    assert summary.numeric_sample == [0.0, 1.0, 3.0, 4.0, 5.0]
    assert "2" not in summary.string_freq and "2" not in summary._distinct
    assert stats._dirty_paths == set()
    assert stats.rebuild_dirty_summaries() == 0
    assert db.storage_stats()["summary_rebuilds"] == 0


def test_delete_marks_dirty_and_probe_rebuilds_targeted(monkeypatch):
    """The fallback, on paths at a cap: six values fill a frequency table
    capped at six, so a delete cannot trust its multiplicities."""
    monkeypatch.setattr(statistics, "MAX_STRING_FREQ", 6)
    db = _numbered_db()
    stats = db.runstats("C")
    db.delete_document("C", 2)
    assert dict.__getitem__(stats.summaries, ("a", "b")).dirty
    assert stats._dirty_paths == {("a",), ("a", "b"), ("a", "c")}
    assert db.storage_stats()["summary_rebuilds"] == 0
    probed = stats.summaries[("a", "b")]  # probe boundary: targeted rebuild
    assert not probed.dirty
    assert probed.count == 5
    assert probed.numeric_sample == [0.0, 1.0, 3.0, 4.0, 5.0]
    assert db.storage_stats()["summary_rebuilds"] == 1
    # Only the probed path was rebuilt; the sibling stays dirty until read.
    assert dict.__getitem__(stats.summaries, ("a", "c")).dirty
    assert stats._dirty_paths == {("a",), ("a", "c")}
    assert db.storage_stats()["stats_rescans"] == 1  # the priming runstats
    # The eager repair walks the dirty set, not the summaries.
    assert stats.rebuild_dirty_summaries() == 2
    assert stats._dirty_paths == set()
    assert db.storage_stats()["summary_rebuilds"] == 3
    # Five values are under the cap again: the next delete is exact.
    db.delete_document("C", 4)
    assert stats._dirty_paths == set()
    assert dict.__getitem__(stats.summaries, ("a", "b")).numeric_sample == [
        0.0, 1.0, 3.0, 5.0
    ]
    assert db.storage_stats()["summary_rebuilds"] == 3


def _counting_canonicalize(monkeypatch):
    calls = []
    original = DataStatistics._canonicalize

    def counted(self):
        calls.append(self)
        original(self)

    monkeypatch.setattr(DataStatistics, "_canonicalize", counted)
    return calls


def test_deleting_a_first_holder_moves_its_paths(monkeypatch):
    """``(a, c)`` is first seen in document 0, before ``(a, b)``; with
    document 0 gone a rescan first sees it in document 2, after."""
    calls = _counting_canonicalize(monkeypatch)
    db = Database("t")
    db.create_collection("C")
    for text in (
        "<a><c>x</c></a>",
        "<a><b>1</b></a>",
        "<a><b>2</b><c>y</c></a>",
        "<a><b>3</b><b>4</b><c>z</c></a>",
    ):
        db.insert_document("C", text)
    stats = db.runstats("C")
    assert list(stats.path_counts) == [("a",), ("a", "c"), ("a", "b")]
    assert stats._first_holders == {("a",): 0, ("a", "c"): 0, ("a", "b"): 1}
    pattern = parse_pattern("/a/*")
    assert stats.matching_paths(pattern) == [(("a", "c"), 3), (("a", "b"), 4)]
    db.delete_document("C", 0)
    assert len(calls) == 1
    assert list(stats.path_counts) == [("a",), ("a", "b"), ("a", "c")]
    assert stats._first_holders == {("a",): 1, ("a", "b"): 1, ("a", "c"): 2}
    assert stats.matching_paths(pattern) == [(("a", "b"), 4), (("a", "c"), 2)]
    assert_exact_without_repair(db, stats)
    # Document 3 is nobody's first holder: counts drop in place.
    db.delete_document("C", 3)
    assert len(calls) == 1
    assert stats.path_counts == {("a",): 2, ("a", "b"): 2, ("a", "c"): 1}
    assert stats.path_doc_counts == {("a",): 2, ("a", "b"): 2, ("a", "c"): 1}
    assert_exact_without_repair(db, stats)


def test_deleting_the_only_holder_drops_the_path():
    db = Database("t")
    db.create_collection("C")
    db.insert_document("C", "<a><b>1</b></a>")
    db.insert_document("C", "<a><b>2</b><c k='v'>y</c></a>")
    stats = db.runstats("C")
    pattern = parse_pattern("//c")
    assert stats.matching_paths(pattern) == [(("a", "c"), 1)]
    db.delete_document("C", 1)
    assert list(stats.path_counts) == [("a",), ("a", "b")]
    assert list(dict.keys(stats.summaries)) == [("a",), ("a", "b")]
    assert stats._first_holders == {("a",): 0, ("a", "b"): 0}
    assert stats.matching_paths(pattern) == []
    assert_exact_without_repair(db, stats)
    db.insert_document("C", "<a><c>z</c></a>")  # and it can come back
    assert list(stats.path_counts) == [("a",), ("a", "b"), ("a", "c")]
    assert stats._first_holders[("a", "c")] == 2
    assert_exact_without_repair(db, stats)


def test_deleting_the_current_min_and_max():
    db = Database("t")
    db.create_collection("C")
    for value in ("5", "-2", "9", "9.0", "x"):
        db.insert_document("C", f"<a><b>{value}</b></a>")
    stats = db.runstats("C")
    summary = dict.__getitem__(stats.summaries, ("a", "b"))
    assert (summary.numeric_min, summary.numeric_max) == (-2.0, 9.0)
    db.delete_document("C", 1)  # the minimum
    assert (summary.numeric_min, summary.numeric_max) == (5.0, 9.0)
    db.delete_document("C", 2)  # one of two maxima: "9.0" still holds it
    assert (summary.numeric_min, summary.numeric_max) == (5.0, 9.0)
    assert sorted(summary.string_freq) == ["5", "9.0", "x"]
    db.delete_document("C", 3)
    assert (summary.numeric_min, summary.numeric_max) == (5.0, 5.0)
    db.delete_document("C", 0)  # the last numeric value
    assert (summary.numeric_min, summary.numeric_max) == (None, None)
    assert summary.numeric_sample == [] and summary.string_sample == ["x"]
    assert not summary.dirty
    assert_exact_without_repair(db, stats)


def test_pattern_memos_survive_dml_that_keeps_the_path_set(monkeypatch):
    """``_path_ids`` and the matched-path memo depend only on the set and
    order of paths: a write that adds, drops and moves none keeps both,
    and ``matching_paths`` still reads the counts of the moment."""
    calls = _counting_canonicalize(monkeypatch)
    db = _numbered_db(3)
    stats = db.runstats("C")
    pattern = parse_pattern("/a/b")
    assert stats.matching_paths(pattern) == [(("a", "b"), 3)]
    path_ids, matched = stats._path_ids, stats._matched_paths[str(pattern)]
    doc_id = db.insert_document("C", "<a><b>7</b><b>8</b><c>w</c></a>")
    assert stats._path_ids is path_ids
    assert stats.matching_paths(pattern) == [(("a", "b"), 5)]
    db.delete_document("C", doc_id)
    assert stats.matching_paths(pattern) == [(("a", "b"), 3)]
    assert stats._path_ids is path_ids
    assert stats._matched_paths[str(pattern)] is matched
    assert calls == []
    db.insert_document("C", "<a><d>new</d></a>")  # a path appears
    assert stats._path_ids == [] and stats._matched_paths == {}
    assert stats.matching_paths(parse_pattern("/a/*")) == [
        (("a", "b"), 3), (("a", "c"), 3), (("a", "d"), 1)
    ]


def test_insert_only_dml_never_dirties_summaries():
    db = Database("t")
    db.create_collection("C")
    db.insert_document("C", "<a><b>1</b></a>")
    stats = db.runstats("C")
    for y in range(20):
        db.insert_document("C", f"<a><b>{y}</b></a>")
    assert all(
        not summary.dirty for summary in dict.values(stats.summaries)
    )
    assert db.storage_stats()["summary_rebuilds"] == 0


# ---------------------------------------------------------------------------
# Epoch-scoped what-if cache invalidation
# ---------------------------------------------------------------------------

def _epoch_db():
    db = Database("t")
    db.create_collection("C")
    db.create_collection("D")
    for i in range(4):
        db.insert_document("C", f"<a><b>{i}</b></a>")
        db.insert_document("D", f"<x><y>{i}</y></x>")
    return db


def test_dml_invalidates_only_touched_collections():
    db = _epoch_db()
    session = WhatIfSession(db)
    on_c = parse_statement("COLLECTION('C')/a/b")
    on_d = parse_statement("COLLECTION('D')/x/y")
    session.cost(on_c)
    session.cost(on_d)
    misses = session.counters.cache_misses
    db.insert_document("C", "<a><b>9</b></a>")
    # D's epoch did not move: its cached result must survive the sync.
    assert session.cost(on_d) == session.cost(on_d)
    assert session.counters.cache_misses == misses
    # C's epoch moved: its entry was dropped and is recomputed.
    session.cost(on_c)
    assert session.counters.cache_misses == misses + 1


def test_bare_touch_invalidates_everything():
    db = _epoch_db()
    session = WhatIfSession(db)
    on_c = parse_statement("COLLECTION('C')/a/b")
    on_d = parse_statement("COLLECTION('D')/x/y")
    session.cost(on_c)
    session.cost(on_d)
    misses = session.counters.cache_misses
    db.touch()  # global change: every epoch bumps
    session.cost(on_c)
    session.cost(on_d)
    assert session.counters.cache_misses == misses + 2


def test_index_ddl_scopes_to_its_collection():
    db = _epoch_db()
    session = WhatIfSession(db)
    on_c = parse_statement("COLLECTION('C')/a/b")
    on_d = parse_statement("COLLECTION('D')/x/y")
    session.cost(on_c)
    session.cost(on_d)
    misses = session.counters.cache_misses
    db.create_index(
        IndexDefinition("cx", "C", parse_pattern("/a/b"), IndexValueType.STRING)
    )
    session.cost(on_d)  # untouched collection: still cached
    assert session.counters.cache_misses == misses
    session.cost(on_c)  # index visibility changed: recomputed
    assert session.counters.cache_misses == misses + 1
