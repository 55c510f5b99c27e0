"""Seeding delta checks and view maintenance straight from delta facts.

The incremental checker and the maintenance rounds run one plan per
seed fact.  A warm compiled plan binds the fact straight into registers
through a cached seed spec (``repro.datalog.compiled.bind_seed``), and
``check_delta`` visits only the constraints that mention a predicate the
delta touched.  These tests pin both against the routes they replace:

* the binder agrees with ``match`` + ``_initial_codes`` on every pattern
  and fact, returning None exactly when they do;
* ``check_delta`` reports exactly what a reference copy of the
  visit-every-constraint loop reports, order included, on both
  executors;
* prepared conclusions live on the compiled plan and die with it;
* tiering still counts one interpreted run per seeded run.
"""

import gc
import random
import weakref

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.datalog.plan as plan_module
from repro.datalog.checker import ConsistencyChecker, _violation_key
from repro.datalog.compiled import (
    _initial_codes,
    bind_seed,
    compiled_for,
    seed_spec,
)
from repro.datalog.constraints import ExistenceConclusion
from repro.datalog.engine import DeductiveDatabase
from repro.datalog.facts import PredicateDecl
from repro.datalog.parser import parse_constraints
from repro.datalog.plan import EngineStats
from repro.datalog.pretty import render_stats
from repro.datalog.terms import Atom, Literal, Variable, match, unify
from repro.gom.model import GomDatabase
from repro.obs.metrics import MetricsRegistry

from tests.datalog.test_maintenance_properties import (
    FEATURE_SETS,
    _atom_pool,
)

X, Y, Z, W = (Variable(name) for name in "XYZW")


# ---------------------------------------------------------------------------
# The seed binder agrees with match + _initial_codes.
# ---------------------------------------------------------------------------

def _binder_db():
    db = DeductiveDatabase([
        PredicateDecl("p", ("a", "b", "c")),
        PredicateDecl("q", ("a", "b")),
    ], executor="compiled")
    for args in [("a", "b", 1), ("b", "b", 2), ("a", "a", "a")]:
        db.add_fact(Atom("p", args))
    db.add_fact(Atom("q", ("a", "b")))
    return db


_terms = st.sampled_from([X, Y, Z, "a", "b", 1, True, 1.0])
_values = st.sampled_from(["a", "b", "c", 1, 2, True, 1.0, 0])


@given(pattern_args=st.lists(_terms, min_size=3, max_size=3),
       bound=st.sets(st.sampled_from([X, Y, Z, W])),
       fact_pred=st.sampled_from(["p", "p", "q"]),
       fact_args=st.lists(_values, min_size=1, max_size=4))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_binder_agrees_with_match_and_initial_codes(pattern_args, bound,
                                                    fact_pred, fact_args):
    db = _binder_db()
    pattern = Atom("p", tuple(pattern_args))
    body = (Literal(pattern), Literal(Atom("q", (X, W))))
    plan = db.planner.plan(body, frozenset(bound))
    compiled = compiled_for(plan, db)
    fact = Atom(fact_pred, tuple(fact_args))

    theta = match(pattern, fact)
    expected = None if theta is None else _initial_codes(
        plan, db, theta, compiled.bound_slots)
    spec = seed_spec(compiled, plan, pattern)
    got = None if spec is None else bind_seed(spec, fact,
                                              db.symbols.intern)
    assert got == expected
    # The spec is cached per pattern on the compiled plan.
    assert seed_spec(compiled, plan, pattern) is spec


def test_binder_rejects_constants_repeats_and_arity():
    db = _binder_db()
    pattern = Atom("p", (X, X, "a"))
    plan = db.planner.plan((Literal(pattern),), frozenset({X}))
    compiled = compiled_for(plan, db)
    spec = seed_spec(compiled, plan, pattern)
    intern = db.symbols.intern
    assert bind_seed(spec, Atom("p", ("b", "b", "a")), intern) is not None
    assert bind_seed(spec, Atom("p", ("b", "c", "a")), intern) is None
    assert bind_seed(spec, Atom("p", ("b", "b", "z")), intern) is None
    assert bind_seed(spec, Atom("p", ("b", "b")), intern) is None
    assert bind_seed(spec, Atom("q", ("b", "b", "a")), intern) is None
    # A pattern that does not bind exactly the plan's bound slots has
    # no spec: its runs take the interpreter.
    assert seed_spec(compiled, plan, Atom("p", ("a", "b", "a"))) is None


# ---------------------------------------------------------------------------
# check_delta against a reference copy of the visit-every-constraint loop.
# ---------------------------------------------------------------------------

def reference_check_delta(checker, additions, deletions, derived_delta):
    """The delta check as it was before the relevance index and the
    seed binder: every constraint visited, one ``match`` substitution
    and one planner lookup per seed fact."""
    database = checker.database
    additions = list(additions)
    deletions = list(deletions)
    may_grow, may_shrink = checker._polarity_closure(
        {f.pred for f in additions}, {f.pred for f in deletions})
    added_facts = {}
    deleted_facts = {}
    for fact in additions:
        added_facts.setdefault(fact.pred, []).append(fact)
    for fact in deletions:
        deleted_facts.setdefault(fact.pred, []).append(fact)
    checker._extend_with_derived_deltas(may_grow, may_shrink, added_facts,
                                        deleted_facts, None, derived_delta)

    def run(constraint, seed=None):
        for theta in database.query(constraint.premise, seed):
            if not checker._conclusion_holds(constraint.conclusion, theta):
                yield checker._make_violation(constraint, theta)

    def seeded(constraint):
        if any(f"{pred}!full" in deleted_facts
               for pred in constraint.predicates()):
            yield from run(constraint)
            return
        for literal in constraint.positive_premise_literals():
            for fact in added_facts.get(literal.pred, ()):
                seed = match(literal.atom, fact)
                if seed is not None:
                    yield from run(constraint, seed)
        for literal in constraint.negative_premise_literals():
            for fact in deleted_facts.get(literal.pred, ()):
                seed = match(literal.atom, fact)
                if seed is not None:
                    yield from run(constraint, seed)
        if isinstance(constraint.conclusion, ExistenceConclusion):
            universal = constraint.universal_variables()
            for disjunct in constraint.conclusion.disjuncts:
                for atom in disjunct.atoms:
                    for fact in deleted_facts.get(atom.pred, ()):
                        seed_full = unify(atom, fact)
                        if seed_full is None:
                            continue
                        yield from run(constraint, {
                            var: value for var, value in seed_full.items()
                            if var in universal})

    violations = []
    seen = set()
    for constraint in checker.constraints():
        emitted = set()
        for violation in seeded(constraint):
            key = _violation_key(constraint, violation.substitution)
            if key in emitted:
                continue
            emitted.add(key)
            if key not in seen:
                seen.add(key)
                violations.append(violation)
    return violations


def _described(violations):
    return [(v.constraint.name, v.theta, v.premise_facts, v.absent_facts)
            for v in violations]


sessions_strategy = st.lists(
    st.tuples(
        st.lists(st.tuples(st.booleans(),
                           st.integers(min_value=0, max_value=10_000)),
                 min_size=1, max_size=8),
        st.booleans()),  # exact derived delta, or the !full fallback
    min_size=1, max_size=6)


def _run_sessions(feature_key, executor, sessions):
    model = GomDatabase(features=FEATURE_SETS[feature_key],
                        executor=executor)
    db = model.db
    checker = model.checker
    pool = _atom_pool(db)
    db.materialize()
    for ops, exact in sessions:
        db.materialize()
        db.reset_derived_delta()
        additions, deletions = [], []
        for is_add, index in ops:
            atom = pool[index % len(pool)]
            present = db.contains(atom)
            if is_add and not present and atom not in additions:
                additions.append(atom)
            elif not is_add and present and atom not in deletions:
                deletions.append(atom)
        db.apply_delta(additions=additions, deletions=deletions)
        derived = db.derived_delta() if exact else None
        expected = reference_check_delta(checker, additions, deletions,
                                         derived)
        report = checker.check_delta(additions, deletions,
                                     derived_delta=derived)
        assert _described(report.violations) == _described(expected)
        assert {v.constraint.name for v in report.violations} == \
            {v.constraint.name for v in expected}
        assert report.constraints_checked <= len(checker)


#: (executor, COMPILE_AFTER): warm compiled closures from the first run,
#: compiled-executor plans that never warm up, and the interpreter.  The
#: threshold is pinned because the reference and the checker share the
#: planner cache, so their runs warm the same plans: with the default
#: tiering one of them could run a plan interpreted and the other
#: compiled, and the two executors may enumerate rows in another order.
EXECUTORS = [("compiled", 0), ("compiled", 10 ** 9), ("interpreted", 0)]


@pytest.mark.parametrize("executor,compile_after", EXECUTORS)
@pytest.mark.parametrize("feature_key", sorted(FEATURE_SETS))
@given(sessions=sessions_strategy)
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
def test_check_delta_matches_reference_loop(monkeypatch, executor,
                                            compile_after, feature_key,
                                            sessions):
    monkeypatch.setattr(plan_module, "COMPILE_AFTER", compile_after)
    _run_sessions(feature_key, executor, sessions)


def test_check_delta_visits_only_touched_constraints():
    db = DeductiveDatabase([PredicateDecl("edge", ("s", "d")),
                            PredicateDecl("label", ("n", "l"))])
    checker = ConsistencyChecker(db, parse_constraints("""
    constraint loop: edge(X, X) ==> FALSE.
    constraint unique: label(N, A) & label(N, B) ==> A = B.
    constraint endpoint: edge(X, Y) ==> exists L: label(Y, L).
    """))
    fact = Atom("label", ("a", "1"))
    db.add_fact(fact)
    report = checker.check_delta([fact], [])
    assert report.consistent
    assert report.constraints_checked == 2  # unique, endpoint
    assert checker.check_delta([], []).constraints_checked == 0
    edge = Atom("edge", ("b", "b"))
    db.add_fact(edge)
    report = checker.check_delta([edge], [])
    assert [v.constraint.name for v in report.violations] == \
        ["loop", "endpoint"]
    # A new constraint moves the generation and rebuilds the index.
    checker.add_constraint(parse_constraints(
        "constraint lonely: label(N, L) ==> exists M: edge(M, N).")[0])
    assert checker.check_delta([fact], []).constraints_checked == 3


# ---------------------------------------------------------------------------
# Prepared conclusions, tiering, and the compiled-fallback counter.
# ---------------------------------------------------------------------------

def _edge_checker(executor="compiled"):
    db = DeductiveDatabase([PredicateDecl("edge", ("s", "d")),
                            PredicateDecl("label", ("n", "l"))],
                           executor=executor)
    checker = ConsistencyChecker(db, parse_constraints(
        "constraint endpoint: edge(X, Y) ==> exists L: label(Y, L)."))
    return db, checker


def _seed_edges(db, checker, count, start=0):
    for number in range(start, start + count):
        fact = Atom("edge", (f"n{number}", f"m{number}"))
        db.add_fact(fact)
        db.add_fact(Atom("label", (f"m{number}", "L")))
        assert checker.check_delta([fact], []).consistent


def _premise_plan(db, checker):
    constraint = checker.constraint("endpoint")
    literal = next(constraint.positive_premise_literals())
    return db.planner.plan(constraint.premise,
                           frozenset(literal.variables()))


def test_prepared_conclusions_die_with_their_plan(monkeypatch):
    monkeypatch.setattr(plan_module, "COMPILE_AFTER", 0)
    db, checker = _edge_checker()
    _seed_edges(db, checker, 3)
    plan = _premise_plan(db, checker)
    compiled = plan._cc
    assert compiled is not None
    assert compiled.conclusions  # the existence probe was prepared
    ref = weakref.ref(compiled)
    del plan, compiled
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        db.planner.invalidate()
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


def test_plan_compiles_after_compile_after_interpreted_runs():
    db, checker = _edge_checker()
    # Relation sizes stay within one power of two (8..15), so every
    # check below plans the premise under one planner cache key.
    for number in range(100, 108):
        db.add_fact(Atom("edge", (f"n{number}", f"m{number}")))
        db.add_fact(Atom("label", (f"m{number}", "L")))
    assert plan_module.COMPILE_AFTER < 7
    _seed_edges(db, checker, plan_module.COMPILE_AFTER)
    plan = _premise_plan(db, checker)
    assert plan._cc is None  # every run so far was interpreted
    before = db.stats.compiled_plans
    _seed_edges(db, checker, 1, start=plan_module.COMPILE_AFTER)
    assert plan._cc is not None
    assert db.stats.compiled_plans > before
    assert db.stats.compiled_fallbacks == 0


def test_forced_fallback_counts_one(monkeypatch):
    monkeypatch.setattr(plan_module, "COMPILE_AFTER", 0)
    db, _checker = _edge_checker()
    db.add_fact(Atom("edge", ("a", "b")))
    db.add_fact(Atom("edge", ("c", "d")))
    body = (Literal(Atom("edge", (X, Y))),)
    plan = db.planner.plan(body, frozenset())
    assert db.stats.compiled_fallbacks == 0
    # The substitution grounds X, which the plan was not compiled as
    # bound for: the warm plan hands this run to the interpreter.
    rows = list(plan.substitutions(db, {X: "a"}))
    assert rows == [{X: "a", Y: "b"}]
    assert db.stats.compiled_fallbacks == 1
    assert "compiled fallbacks: 1" in db.stats.describe()
    assert db.stats.as_dict()["compiled_fallbacks"] == 1
    assert "compiled fallbacks" in render_stats(db.stats)
    assert EngineStats().merge(db.stats).compiled_fallbacks == 1
    registry = MetricsRegistry()
    registry.absorb_engine_stats(db.stats)
    assert registry.snapshot()["counters"][
        "engine.compiled_fallbacks"] == 1


def test_warm_e5_delta_check_has_no_compiled_fallbacks():
    from repro.manager import SchemaManager
    from repro.workloads.synthetic import generate_schema, random_evolution

    manager = SchemaManager(executor="compiled")
    schema = generate_schema(manager, 50, seed=150)
    manager.model.db.materialize()
    session = manager.begin_session(check_mode="delta")
    random_evolution(schema, session, random.Random(7), "add_attribute")
    for _ in range(plan_module.COMPILE_AFTER + 2):
        assert session.check("delta").consistent
    assert session.stats.compiled_plans > 0
    assert session.stats.compiled_fallbacks == 0
    session.rollback()

