"""Snapshot isolation units: COW, epochs, read-only enforcement."""

import pytest

from repro.datalog.terms import Atom
from repro.errors import ReadOnlySnapshotError, SessionError
from repro.gom.builtins import builtin_type
from repro.manager import SchemaManager
from repro.service.stress import snapshot_digest

SOURCE = """
schema S is
type T is [ x: int; ] end type T;
end schema S;
"""


@pytest.fixture
def manager():
    manager = SchemaManager()
    manager.define(SOURCE)
    return manager


def _add_attribute(manager, session, tid, name):
    manager.analyzer.primitives(session).add_attribute(
        tid, name, builtin_type("int"))


class TestPublication:
    def test_enable_publishes_the_initial_snapshot(self, manager):
        manager.model.enable_snapshots()
        snapshot = manager.model.snapshot()
        assert snapshot.epoch == 1
        assert manager.model.epoch == 1

    def test_enable_is_idempotent(self, manager):
        manager.model.enable_snapshots()
        manager.model.enable_snapshots()
        assert manager.model.epoch == 1

    def test_lazy_snapshot_enables_publication(self, manager):
        snapshot = manager.snapshot()
        assert snapshot.epoch == 1
        assert manager.model.snapshots_enabled

    def test_publish_invalidates_the_snapshot_planner_once(
            self, manager, monkeypatch):
        from repro.datalog.plan import QueryPlanner
        calls = []
        invalidate = QueryPlanner.invalidate

        def counting(planner):
            calls.append(planner)
            invalidate(planner)

        monkeypatch.setattr(QueryPlanner, "invalidate", counting)
        manager.model.enable_snapshots()
        snapshot = manager.model.snapshot()
        assert len(snapshot.checker) == len(manager.model.checker) > 1
        planner = snapshot.db.planner
        assert [p for p in calls if p is planner] == [planner]
        assert snapshot.checker.generation == 1

    def test_commit_publishes_the_next_epoch(self, manager):
        manager.model.enable_snapshots()
        tid = manager.model.type_id("T")
        session = manager.begin_session()
        _add_attribute(manager, session, tid, "y")
        session.commit()
        snapshot = manager.model.snapshot()
        assert snapshot.epoch == 2
        assert dict(snapshot.attributes(tid)).keys() == {"x", "y"}

    def test_rollback_publishes_nothing(self, manager):
        manager.model.enable_snapshots()
        before = manager.model.snapshot()
        tid = manager.model.type_id("T")
        session = manager.begin_session()
        _add_attribute(manager, session, tid, "y")
        session.rollback()
        after = manager.model.snapshot()
        assert after is before
        assert after.epoch == 1

    def test_publish_refused_mid_session(self, manager):
        manager.model.enable_snapshots()
        session = manager.begin_session()
        with pytest.raises(SessionError):
            manager.model.publish_snapshot()
        session.rollback()

    def test_snapshot_mid_session_serves_last_published(self, manager):
        manager.model.enable_snapshots()
        pinned = manager.model.snapshot()
        tid = manager.model.type_id("T")
        session = manager.begin_session()
        _add_attribute(manager, session, tid, "y")
        # Uncommitted changes are invisible: the published image wins.
        assert manager.model.snapshot() is pinned
        assert "y" not in dict(manager.model.snapshot().attributes(tid))
        session.rollback()

    def test_protocol_result_carries_the_epoch(self, manager):
        manager.model.enable_snapshots()
        tid = manager.model.type_id("T")
        result = manager.evolve(
            lambda session: _add_attribute(manager, session, tid, "y"))
        assert result.succeeded
        assert result.epoch == manager.model.epoch == 2


class TestIsolation:
    def test_pinned_snapshot_survives_later_commits(self, manager):
        manager.model.enable_snapshots()
        tid = manager.model.type_id("T")
        pinned = manager.model.snapshot()
        digest = snapshot_digest(pinned)
        for index in range(5):
            session = manager.begin_session()
            _add_attribute(manager, session, tid, f"extra_{index}")
            session.commit()
        # The old image is byte-identical: COW never mutated it.
        assert snapshot_digest(pinned) == digest
        assert pinned.epoch == 1
        assert "extra_0" not in dict(pinned.attributes(tid))
        assert "extra_4" in dict(manager.model.snapshot().attributes(tid))

    def test_snapshot_query_matches_live_model(self, manager):
        manager.model.enable_snapshots()
        snapshot = manager.model.snapshot()
        live = sorted(repr(f) for f in manager.model.db.edb.all_facts())
        frozen = sorted(repr(f) for f in snapshot.db.edb.all_facts())
        assert frozen == live
        tid = manager.model.type_id("T")
        assert snapshot.type_id("T") == tid
        assert snapshot.type_name(tid) == "T"
        assert snapshot.attributes(tid) == manager.model.attributes(tid)

    def test_snapshot_checks_consistent(self, manager):
        snapshot = manager.snapshot()
        report = snapshot.check()
        assert report.consistent

    def test_rollback_mid_churn_leaves_snapshots_valid(self, manager):
        manager.model.enable_snapshots()
        tid = manager.model.type_id("T")
        session = manager.begin_session()
        _add_attribute(manager, session, tid, "doomed")
        session.rollback()
        snapshot = manager.model.snapshot()
        assert snapshot.check().consistent
        assert "doomed" not in dict(snapshot.attributes(tid))

    def test_versions_view_works_on_snapshots(self):
        manager = SchemaManager(
            features=("core", "versioning", "fashion"))
        manager.define(SOURCE)
        snapshot = manager.snapshot()
        tid = snapshot.type_id("T")
        assert snapshot.versions.type_lineage(tid) == [tid]
        assert snapshot.versions.substitutable_for(tid) == []


class TestReadOnly:
    def test_mutations_raise(self, manager):
        snapshot = manager.snapshot()
        fact = Atom("Schema", (manager.model.ids.schema(), "Evil"))
        with pytest.raises(ReadOnlySnapshotError):
            snapshot.db.add_fact(fact)
        with pytest.raises(ReadOnlySnapshotError):
            snapshot.db.remove_fact(fact)
        with pytest.raises(ReadOnlySnapshotError):
            snapshot.db.apply_delta([fact], [])
        with pytest.raises(ReadOnlySnapshotError):
            snapshot.db.declare(None)
        with pytest.raises(ReadOnlySnapshotError):
            snapshot.db.add_rule(None)

    def test_failed_mutation_changes_nothing(self, manager):
        snapshot = manager.snapshot()
        digest = snapshot_digest(snapshot)
        with pytest.raises(ReadOnlySnapshotError):
            snapshot.db.add_fact(
                Atom("Schema", (manager.model.ids.schema(), "Evil")))
        assert snapshot_digest(snapshot) == digest
