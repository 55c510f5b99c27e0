"""One EES check per committed session.

``EvolutionSession.commit`` reuses the report of the session's last
``check`` while nothing it depends on moved: the check mode, the EDB's
modification generation, and the rule and constraint sets.  Any change
in between — through the session, around it, or to the constraints —
makes commit check again.
"""

import pytest

from repro.control.protocol import choose_first
from repro.datalog.parser import parse_constraint
from repro.datalog.terms import Atom
from repro.errors import InconsistentSchemaError
from repro.gom.builtins import builtin_type
from repro.manager import SchemaManager

INT = builtin_type("int")


@pytest.fixture
def manager():
    manager = SchemaManager()
    manager.define("""
    schema S is
    type T is [ x : int; ] end type T;
    end schema S;
    """)
    return manager


def _tid(manager):
    return manager.model.type_id("T", manager.model.schema_id("S"))


def _operation_without_code(manager):
    """A declaration with no code: violates a core constraint."""
    did = manager.model.ids.decl()
    return Atom("Decl", (did, _tid(manager), "broken", INT))


def test_consistent_evolve_session_checks_once(manager):
    def changes(session):
        manager.analyzer.primitives(session).add_attribute(
            _tid(manager), "y", INT)

    result = manager.evolve(changes)
    assert result.outcome == "consistent"
    assert manager.last_session_stats().checks_run == 1


def test_repaired_session_checks_once_per_round(manager):
    def changes(session):
        manager.analyzer.primitives(session).add_operation(
            _tid(manager), "broken", (), INT)

    result = manager.evolve(changes, chooser=choose_first)
    assert result.outcome == "repaired"
    assert result.rounds >= 2
    assert manager.last_session_stats().checks_run == result.rounds


def test_clean_check_then_commit_checks_once(manager):
    session = manager.begin_session()
    session.add(Atom("Attr", (_tid(manager), "y", INT)))
    report = session.check()
    assert report.consistent
    assert session.commit() is report
    assert session.stats.checks_run == 1


def test_modify_after_clean_check_is_rechecked(manager):
    session = manager.begin_session()
    session.add(Atom("Attr", (_tid(manager), "y", INT)))
    assert session.check().consistent
    session.add(_operation_without_code(manager))
    with pytest.raises(InconsistentSchemaError):
        session.commit()
    assert session.stats.checks_run == 2
    session.rollback()


def test_model_modify_bypassing_the_session_forces_a_recheck(manager):
    # Full mode: the bypassing change is not in the session's net delta,
    # so only a check of the whole extension can see it.
    session = manager.begin_session(check_mode="full")
    assert session.check().consistent
    manager.model.modify(additions=[_operation_without_code(manager)])
    with pytest.raises(InconsistentSchemaError):
        session.commit()
    assert session.stats.checks_run == 2
    session.rollback()


def test_commit_in_full_mode_after_a_delta_check_runs_the_full_check(
        manager):
    session = manager.begin_session()
    session.add(Atom("Attr", (_tid(manager), "y", INT)))
    delta = session.check()
    checked = session.stats.constraints_checked
    full = session.commit(mode="full")
    assert full is not delta
    assert session.stats.checks_run == 2
    assert session.stats.constraints_checked - checked == \
        len(manager.model.checker)


def test_constraint_added_between_check_and_commit_forces_a_recheck(
        manager):
    session = manager.begin_session()
    session.add(Atom("Attr", (_tid(manager), "y", INT)))
    assert session.check().consistent
    manager.model.checker.add_constraint(parse_constraint(
        "constraint no_attr_named_y: Attr(T, y, D) ==> FALSE."))
    with pytest.raises(InconsistentSchemaError) as raised:
        session.commit()
    assert [violation.constraint.name
            for violation in raised.value.violations] == ["no_attr_named_y"]
    assert session.stats.checks_run == 2
    session.rollback()
