"""The answer oracle: an index configuration changes a statement's cost,
never its answer -- and neither does reading through a snapshot.

One generator, two engines, one oracle (ROADMAP item 3(a), scaled to the
write path):

* **generator** -- hypothesis draws documents, statements (``//``, ``*``,
  step predicates, where clauses with every comparison operator on
  numbers and strings, two-sided ranges, predicated deletes) and an
  index configuration that mixes specific and generalized patterns with
  string and numeric key types, then interleaves inserts and deletes;
* **engines** -- :class:`Executor` over the indexed live database, and
  :class:`Executor` over a :meth:`SnapshotStore.snapshot` taken in the
  middle of the sequence, which must keep answering as of that point
  whatever happens to the live database afterwards;
* **truth** -- the same statements on index-free copies that saw the
  same writes (one kept current, one stopped at the snapshot point),
  resolved by collection scan and tree walk only.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.optimizer.executor import Executor
from repro.query.parser import parse_statement
from repro.storage import Database, IndexDefinition, IndexValueType
from repro.storage.snapshots import SnapshotStore
from repro.xpath import parse_pattern

TAGS = ("a", "b", "c")
TEXTS = ("", "red", "blue", "x y", "007", "-3.5", "7", "42")

texts = st.sampled_from(TEXTS)


@st.composite
def elements(draw, depth=0):
    tag = "a" if depth == 0 else draw(st.sampled_from(TAGS))
    attrs = draw(
        st.lists(
            st.tuples(st.sampled_from(("id", "k")), texts),
            max_size=2,
            unique_by=lambda item: item[0],
        )
    )
    children = (
        []
        if depth >= 2
        else draw(st.lists(elements(depth=depth + 1), max_size=3))
    )
    attr_text = "".join(f' {name}="{value}"' for name, value in attrs)
    return f"<{tag}{attr_text}>{draw(texts)}{''.join(children)}</{tag}>"


documents = elements()

BINDINGS = ("/a", "/a/b", "/a/*", "//b", "//c", "/a//c", "/*/c/b", "//*")
RELATIVE = ("", "/b", "/c", "/@id", "/@k", "/*", "/*/c", "//b", "//@id")
OPERATORS = ("=", "!=", "<", "<=", ">", ">=")
LITERALS = ('"red"', '"blue"', '"x y"', '"zz"', "7", "-3.5", "10", "42")


@st.composite
def conditions(draw, subject):
    """One where conjunct (or two forming a range) on ``subject``."""
    target = subject + draw(st.sampled_from(RELATIVE))
    shape = draw(st.sampled_from(("compare", "range", "exists")))
    if shape == "exists" and target != subject:
        return target
    if shape == "range":
        low, high = sorted(
            draw(st.tuples(st.integers(-5, 45), st.integers(-5, 45)))
        )
        return (
            f"{target} {draw(st.sampled_from(('>', '>=')))} {low} and "
            f"{target} {draw(st.sampled_from(('<', '<=')))} {high}"
        )
    return (
        f"{target} {draw(st.sampled_from(OPERATORS))} "
        f"{draw(st.sampled_from(LITERALS))}"
    )


@st.composite
def queries(draw):
    binding = draw(st.sampled_from(BINDINGS))
    predicate = draw(
        st.sampled_from(("", "[b]", "[@id]", "[b > 3]", '[c = "red"]'))
    )
    where = draw(st.lists(conditions("$x"), max_size=2))
    clause = f" where {' and '.join(where)}" if where else ""
    returned = draw(st.sampled_from(("$x", "$x/b", "$x/@id")))
    return f"for $x in X('C'){binding}{predicate}{clause} return {returned}"


@st.composite
def deletes(draw):
    path = draw(st.sampled_from(("/a/b", "//c", "/a/*/c", "//@id", "/a/@k")))
    return (
        f"delete from C where {path} {draw(st.sampled_from(OPERATORS))} "
        f"{draw(st.sampled_from(LITERALS))}"
    )


INDEX_PATTERNS = ("//*", "//@*", "/a/*", "//b", "/a//c", "/a/b", "//@id", "/a/*/c")

configurations = st.lists(
    st.tuples(st.sampled_from(INDEX_PATTERNS), st.sampled_from(IndexValueType)),
    min_size=1,
    max_size=4,
    unique=True,
)

writes = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), documents),
        st.tuples(st.just("delete-id"), st.integers(0, 99)),
        st.tuples(st.just("delete-where"), deletes()),
    ),
    min_size=2,
    max_size=8,
)


def answers(database, statements, **executor_options):
    """What ``database`` answers to every statement, in statement order."""
    executor = Executor(database, **executor_options)
    found = []
    for statement in statements:
        result = executor.execute(statement, collect_output=True)
        found.append((result.rows, result.output))
    return found


def apply_write(databases, write):
    """Apply one generated write to every database (same ids on each).
    Returns the rows each engine reported for a predicated delete."""
    kind, payload = write
    if kind == "insert":
        return [database.insert_document("C", payload) for database in databases]
    if kind == "delete-id":
        live = [document.doc_id for document in databases[0].collection("C")]
        if not live:
            return []
        for database in databases:
            database.delete_document("C", live[payload % len(live)])
        return []
    statement = parse_statement(payload)
    # the indexed engine reads the synopsis, the truth copies walk trees
    return [
        Executor(database, use_synopsis=index == 0).execute(statement).rows
        for index, database in enumerate(databases)
    ]


@settings(max_examples=100, deadline=None)
@given(
    initial=st.lists(documents, min_size=1, max_size=5),
    texts=st.lists(queries(), min_size=1, max_size=4),
    configuration=configurations,
    dml=writes,
    snapshot_at=st.integers(0, 7),
)
@example(
    # Two bounds on a pattern with several nodes per document: the merged
    # range scan found no node inside (0, 0); the document qualifies
    # because one node is above 0 and another below.
    initial=["<a></a>", "<a></a>", "<a><a><a>007</a><a>-3.5</a></a></a>"],
    texts=["for $x in X('C')/a/* where $x/* > 0 and $x/* < 0 return $x"],
    configuration=[("//*", IndexValueType.NUMERIC)],
    dml=[("delete-id", 0), ("delete-id", 0)],
    snapshot_at=0,
)
# Residual predicates answered from the synopsis, one shape each.
@example(
    # several binding nodes per document; only a sibling's subtree holds
    # a match (the first b's descendant b fails, the c's passes)
    initial=["<a><b><b>1</b></b><c><b>7</b></c></a>", "<a><b>9</b></a>"],
    texts=["for $x in X('C')/a/* where $x//b > 3 return $x"],
    configuration=[("//b", IndexValueType.NUMERIC)],
    dml=[("insert", "<a><c><b>2</b></c><b><c><b>5</b></c></b></a>"),
         ("delete-id", 0)],
    snapshot_at=1,
)
@example(
    # a predicate on the binding step
    initial=["<a><c><b>5</b></c><c><b>1</b><b>8</b></c><b>4</b></a>"],
    texts=["for $x in X('C')/a/*[b > 3] return $x/b"],
    configuration=[("/a/*", IndexValueType.STRING)],
    dml=[("insert", "<a><c><b>2</b></c></a>"), ("delete-id", 1)],
    snapshot_at=0,
)
@example(
    # attribute clauses: the binding node's own and its descendants'
    initial=['<a><b id="red"></b><c id="blue"><b id="red"></b></c></a>'],
    texts=[
        "for $x in X('C')/a/* where $x/@id = \"red\" return $x/@id",
        "for $x in X('C')/a/* where $x//@id = \"red\" return $x",
    ],
    configuration=[("//@id", IndexValueType.STRING)],
    dml=[("insert", '<a><c k="7"><b id="red"></b></c></a>'),
         ("delete-where", 'delete from C where //@id = "blue"')],
    snapshot_at=1,
)
@example(
    # an empty clause path keeps the tree walk
    initial=["<a><b>7</b><b>07</b><b>x</b></a>"],
    texts=["for $x in X('C')/a/b where $x = 7 return $x"],
    configuration=[("/a/b", IndexValueType.NUMERIC)],
    dml=[("insert", "<a><b>7.0</b></a>"), ("delete-id", 0)],
    snapshot_at=0,
)
@example(
    # a // binding path keeps the tree walk (nested same-name elements)
    initial=["<a><b><b><b>5</b></b></b><b>4</b></a>"],
    texts=["for $x in X('C')//b where $x/b > 3 return $x"],
    configuration=[("//b", IndexValueType.NUMERIC)],
    dml=[("insert", "<a><b><b>1</b></b></a>"), ("delete-id", 1)],
    snapshot_at=1,
)
def test_indexes_and_snapshots_never_change_an_answer(
    initial, texts, configuration, dml, snapshot_at
):
    statements = [parse_statement(text) for text in texts]
    indexed, current_truth, frozen_truth = (Database(name) for name in "itf")
    for database in (indexed, current_truth, frozen_truth):
        database.create_collection("C")
        for text in initial:
            database.insert_document("C", text)
    for position, (pattern, value_type) in enumerate(configuration):
        indexed.create_index(
            IndexDefinition(
                f"ix{position}", "C", parse_pattern(pattern), value_type
            )
        )
    store = SnapshotStore()
    snapshot_at %= len(dml)
    snapshot = None
    for step, write in enumerate(dml):
        if step == snapshot_at:
            snapshot = store.snapshot(indexed)
        # the frozen copy stops taking writes at the snapshot point
        targets = [indexed, current_truth]
        if snapshot is None:
            targets.append(frozen_truth)
        reported = apply_write(targets, write)
        assert len(set(reported)) <= 1, (write, reported)
        assert answers(indexed, statements) == answers(
            current_truth, statements, use_synopsis=False
        )
        if snapshot is not None:
            assert answers(snapshot, statements) == answers(
                frozen_truth, statements, use_synopsis=False
            )
            # and a snapshot taken now agrees with the live database
            assert answers(store.snapshot(indexed), statements) == answers(
                indexed, statements
            )
