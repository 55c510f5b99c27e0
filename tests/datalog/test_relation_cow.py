"""Copy-on-write isolation between a live relation and its frozen views.

``FactStore.fork_shared`` hands out views that share the live store's
storage; the live side privatizes its containers on the first mutation
after a fork and copies an index bucket only the first time it changes
it.  The property test interleaves random mutations with repeated forks
and checks that every earlier fork still answers exactly what the store
held when it was taken; the deterministic tests pin the individual
cases and the O(touched) cost.
"""

import itertools

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.datalog.facts import FactStore, PredicateDecl
from repro.datalog.plan import EngineStats
from repro.datalog.pretty import render_stats
from repro.datalog.terms import Atom
from repro.obs.metrics import MetricsRegistry

DECL = PredicateDecl("edge", ("src", "dst"))
#: A tiny domain, so buckets are shared by several rows and removals
#: regularly empty a bucket.
VALUES = ("a", "b", "c")
ROWS = list(itertools.product(VALUES, repeat=2))
PATTERNS = list(itertools.product(VALUES + (None,), repeat=2))


def _store(rows=()):
    store = FactStore([DECL])
    for row in rows:
        store.add(Atom("edge", row))
    return store


def _expected(model, pattern):
    return {row for row in model
            if all(want is None or want == got
                   for want, got in zip(pattern, row))}


def _assert_answers(store, model):
    relation = store.relation("edge")
    assert set(relation.rows()) == model
    assert len(relation) == len(model)
    for pattern in PATTERNS:
        assert set(relation.lookup(pattern)) == _expected(model, pattern), \
            pattern


OPS = st.one_of(
    st.tuples(st.just("add"), st.sampled_from(ROWS)),
    st.tuples(st.just("remove"), st.sampled_from(ROWS)),
    st.tuples(st.just("clear")),
    st.tuples(st.just("fork")),
)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(initial=st.sets(st.sampled_from(ROWS)),
       ops=st.lists(OPS, max_size=40))
def test_every_fork_keeps_its_extension(initial, ops):
    store = _store(initial)
    model = set(initial)
    forks = [(store.fork_shared(), frozenset(model))]
    for op in ops:
        relation = store.relation("edge")
        if op[0] == "add":
            relation.add(op[1])
            model.add(op[1])
        elif op[0] == "remove":
            relation.remove(op[1])
            model.discard(op[1])
        elif op[0] == "clear":
            store.clear()
            model.clear()
        else:
            forks.append((store.fork_shared(), frozenset(model)))
        for fork, captured in forks:
            _assert_answers(fork, captured)
    _assert_answers(store, model)


class TestSharedBuckets:
    def test_removal_that_empties_a_shared_bucket(self):
        store = _store([("a", "b"), ("a", "c"), ("b", "c")])
        fork = store.fork_shared()
        store.remove(Atom("edge", ("b", "c")))     # empties src=b
        _assert_answers(fork, {("a", "b"), ("a", "c"), ("b", "c")})
        _assert_answers(store, {("a", "b"), ("a", "c")})
        # src=b only lost its key; dst=c kept a row, so it was copied.
        assert store.stats.cow_buckets_copied == 1

    def test_add_to_an_existing_shared_bucket(self):
        store = _store([("a", "b")])
        fork = store.fork_shared()
        store.add(Atom("edge", ("a", "c")))        # joins bucket src=a
        _assert_answers(fork, {("a", "b")})
        _assert_answers(store, {("a", "b"), ("a", "c")})

    def test_refreeze_of_a_partly_privatized_relation(self):
        store = _store([("a", "b"), ("a", "c"), ("b", "c")])
        first = store.fork_shared()
        store.add(Atom("edge", ("a", "a")))        # owns src=a, dst=a
        second = store.fork_shared()               # shares them again
        store.add(Atom("edge", ("a", "b")))        # no-op: present
        store.remove(Atom("edge", ("a", "c")))     # src=a must re-copy
        store.add(Atom("edge", ("c", "a")))        # dst=a must re-copy
        _assert_answers(first, {("a", "b"), ("a", "c"), ("b", "c")})
        _assert_answers(second,
                        {("a", "b"), ("a", "c"), ("b", "c"), ("a", "a")})
        _assert_answers(store,
                        {("a", "b"), ("b", "c"), ("a", "a"), ("c", "a")})

    def test_clear_after_fork_leaves_the_fork_whole(self):
        store = _store([("a", "b"), ("b", "c")])
        fork = store.fork_shared()
        store.clear()
        store.add(Atom("edge", ("a", "b")))
        _assert_answers(fork, {("a", "b"), ("b", "c")})
        _assert_answers(store, {("a", "b")})


def test_privatizing_copies_only_the_touched_buckets():
    """After a fork, one mutation costs the buckets it changes: every
    other bucket stays the same object on both sides."""
    rows = [(f"s{i}", f"d{i % 10}") for i in range(100)]
    store = _store(rows)
    live = store.relation("edge")
    fork = store.fork_shared()
    view = fork.relation("edge")
    stats = EngineStats()
    store.set_stats(stats)

    # ("s3", "d3") leaves src=s3 empty and d3 with 9 rows; ("s100",
    # "d7") creates src=s100 and joins d7.
    store.remove(Atom("edge", ("s3", "d3")))
    store.add(Atom("edge", ("s100", "d7")))

    assert stats.cow_relations_privatized == 1
    assert stats.cow_buckets_copied == 2           # dst=d3 and dst=d7
    code = live.symbols.code
    touched = {(0, code("s3")), (0, code("s100")),
               (1, code("d3")), (1, code("d7"))}
    for position in range(2):
        live_index = live._indexes[position]
        view_index = view._indexes[position]
        assert live_index is not view_index
        for key, bucket in view_index.items():
            if (position, key) in touched:
                assert live_index.get(key) is not bucket
            else:
                assert live_index[key] is bucket
    # A second write to an already-owned bucket copies nothing more.
    store.add(Atom("edge", ("s101", "d7")))
    assert stats.cow_buckets_copied == 2
    assert stats.cow_relations_privatized == 1

    assert stats.as_dict()["cow_buckets_copied"] == 2
    assert stats.as_dict()["cow_relations_privatized"] == 1
    assert "2 bucket(s) copied" in stats.describe()
    assert "cow buckets copied" in render_stats(stats)
    registry = MetricsRegistry()
    registry.absorb_engine_stats(stats)
    counters = registry.snapshot()["counters"]
    assert counters["engine.cow_buckets_copied"] == 2
    assert counters["engine.cow_relations_privatized"] == 1


def test_unforked_store_counts_no_copy_on_write():
    store = _store()
    stats = EngineStats()
    store.set_stats(stats)
    for row in ROWS:
        store.add(Atom("edge", row))
    store.remove(Atom("edge", ROWS[0]))
    assert stats.cow_relations_privatized == 0
    assert stats.cow_buckets_copied == 0


def test_store_generation_moves_with_every_change():
    store = _store([("a", "b")])
    start = store.generation()
    store.add(Atom("edge", ("a", "b")))            # already present
    assert store.generation() == start
    store.relation("edge").add_codes(
        tuple(store.symbols.intern(value) for value in ("b", "a")))
    after_add = store.generation()
    assert after_add > start
    store.remove(Atom("edge", ("c", "c")))         # absent
    assert store.generation() == after_add
    store.clear()
    assert store.generation() > after_add
