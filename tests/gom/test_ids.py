"""Unit tests for identifiers."""

import gc
import threading

import pytest

from repro.gom.ids import (
    ANY_TYPE,
    Id,
    IdFactory,
    builtin_phrep_id,
    builtin_type_id,
)


class TestId:
    def test_numbered_repr(self):
        assert repr(Id("tid", number=3)) == "tid_3"

    def test_labeled_repr(self):
        assert repr(Id("tid", label="string")) == "tid_string"

    def test_exactly_one_of_number_label(self):
        with pytest.raises(ValueError):
            Id("tid")
        with pytest.raises(ValueError):
            Id("tid", number=1, label="x")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Id("xid", number=1)

    def test_equality_and_hash(self):
        assert Id("tid", number=1) == Id("tid", number=1)
        assert Id("tid", number=1) != Id("sid", number=1)
        assert len({Id("tid", number=1), Id("tid", number=1)}) == 1

    def test_ordering_numbers_before_labels(self):
        assert Id("tid", number=99) < Id("tid", label="int")

    def test_ordering_by_number(self):
        assert Id("tid", number=2) < Id("tid", number=10)

    def test_is_builtin(self):
        assert Id("tid", label="int").is_builtin
        assert not Id("tid", number=1).is_builtin


class TestIdFactory:
    def test_sequential_numbering(self):
        factory = IdFactory()
        assert repr(factory.type()) == "tid_1"
        assert repr(factory.type()) == "tid_2"

    def test_kinds_independent(self):
        factory = IdFactory()
        factory.type()
        assert repr(factory.schema()) == "sid_1"
        assert repr(factory.decl()) == "did_1"
        assert repr(factory.code()) == "cid_1"
        assert repr(factory.phrep()) == "clid_1"
        assert repr(factory.object()) == "oid_1"

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            IdFactory().fresh("zid")

    def test_peek_consumes_nothing(self):
        factory = IdFactory()
        factory.type()
        assert factory.next_numbers()["tid"] == 2
        assert factory.next_numbers()["tid"] == 2
        assert repr(factory.type()) == "tid_2"

    def test_peeking_retains_nothing(self):
        """Every commit peeks the counters; the factory must not grow
        with the number of peeks."""
        factory = IdFactory()
        factory.next_numbers()
        after_one = _reachable(factory)
        for _ in range(1000):
            factory.next_numbers()
        assert _reachable(factory) == after_one

    def test_resume_only_moves_forward(self):
        factory = IdFactory()
        factory.resume("tid", 10)
        factory.resume("tid", 5)
        assert repr(factory.type()) == "tid_10"

    def test_concurrent_fresh_never_repeats(self):
        factory = IdFactory()
        results = []

        def allocate():
            results.extend(factory.fresh("oid").number for _ in range(2000))

        threads = [threading.Thread(target=allocate) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(results) == list(range(1, 8001))


def _reachable(root) -> int:
    """The number of distinct objects reachable from *root*'s state
    (classes, and everything reachable only through them, excluded)."""
    seen = {id(root)}
    todo = [root]
    while todo:
        for child in gc.get_referents(todo.pop()):
            if isinstance(child, type):
                continue
            if id(child) not in seen:
                seen.add(id(child))
                todo.append(child)
    return len(seen)


class TestWellKnownIds:
    def test_builtin_type_id(self):
        assert builtin_type_id("string") == Id("tid", label="string")

    def test_builtin_phrep_id(self):
        assert builtin_phrep_id("int") == Id("clid", label="int")

    def test_any_type(self):
        assert ANY_TYPE.kind == "tid"
        assert ANY_TYPE.label == "ANY"
