"""Full and incremental consistency checking.

The *Consistency Control* defers checking to the end of an evolution
session (EES).  Two strategies are provided:

* :meth:`ConsistencyChecker.check` — the naive baseline: enumerate every
  premise instantiation of every constraint;
* :meth:`ConsistencyChecker.check_delta` — the efficient check in the
  spirit of Moerkotte & Rösch: only constraint instantiations that can be
  *newly violated* by a given update are enumerated, by seeding premise
  evaluation with the update's added/deleted facts (including derived
  deltas obtained from predicate-level view maintenance).

``check_delta`` is complete relative to a consistent pre-update state: if
the database satisfied all constraints before the update, it reports
exactly the violations present afterwards.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.datalog.builtins import Comparison, compare_values
from repro.datalog.constraints import (
    Conclusion,
    Constraint,
    EqualityConclusion,
    ExistenceConclusion,
    FalseConclusion,
)
from repro.datalog.compiled import (
    CompiledPlan,
    Seeder,
    _initial_codes,
    compiled_for,
)
from repro.datalog.engine import DeductiveDatabase
from repro.datalog.plan import EngineStats, JoinPlan, _resolve_bound_vars
from repro.datalog.terms import Atom, Literal, Substitution, Variable, match, unify

#: Marks threads that already run on a shared reader pool.  A parallel
#: check started from such a thread would submit to the pool it is
#: itself occupying and wait — with every worker in the same position
#: that is a deadlock — so :meth:`ConsistencyChecker.check` silently
#: degrades to the serial path there.
_POOL_WORKER = threading.local()

#: Suffix of the ``deleted_facts`` key that marks a shrunk derived
#: predicate without an exact delta (see
#: :meth:`ConsistencyChecker._extend_with_derived_deltas`).
_FULL = "!full"


def mark_pool_worker(active: bool) -> None:
    """Flag the current thread as a reader-pool worker (or clear it)."""
    _POOL_WORKER.active = active


def in_pool_worker() -> bool:
    """Is the current thread a reader-pool worker?"""
    return getattr(_POOL_WORKER, "active", False)


@dataclass(frozen=True)
class Violation:
    """One falsifying instantiation of one constraint."""

    constraint: Constraint
    theta: Tuple[Tuple[Variable, object], ...]
    premise_facts: Tuple[Atom, ...]
    absent_facts: Tuple[Atom, ...] = ()

    @property
    def substitution(self) -> Substitution:
        return dict(self.theta)

    def describe(self) -> str:
        """A detailed description, as the paper demands (no "stupid yes/no")."""
        bindings = ", ".join(f"{var.name}={value}" for var, value in self.theta)
        lines = [
            f"violated constraint: {self.constraint.name}",
        ]
        if self.constraint.doc:
            lines.append(f"  meaning: {self.constraint.doc}")
        lines.append(f"  witness: {bindings}")
        if self.premise_facts:
            facts = ", ".join(repr(f) for f in self.premise_facts)
            lines.append(f"  matched facts: {facts}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        bindings = ", ".join(f"{var.name}={value}" for var, value in self.theta)
        return f"Violation({self.constraint.name}; {bindings})"


@dataclass
class CheckReport:
    """Result of one consistency check."""

    violations: List[Violation]
    constraints_checked: int
    elapsed_seconds: float
    mode: str  # "full" or "delta"

    @property
    def consistent(self) -> bool:
        return not self.violations

    def by_constraint(self) -> Dict[str, List[Violation]]:
        grouped: Dict[str, List[Violation]] = {}
        for violation in self.violations:
            grouped.setdefault(violation.constraint.name, []).append(violation)
        return grouped

    def describe(self) -> str:
        if self.consistent:
            return (f"consistent ({self.constraints_checked} constraints, "
                    f"{self.mode} check, {self.elapsed_seconds * 1000:.2f} ms)")
        lines = [f"{len(self.violations)} violation(s) "
                 f"({self.mode} check, {self.elapsed_seconds * 1000:.2f} ms):"]
        for violation in self.violations:
            lines.append(violation.describe())
        return "\n".join(lines)


def _violation_key(constraint: Constraint,
                   theta: Substitution) -> Tuple:
    items = tuple(sorted(
        ((var.name, theta[var]) for var in theta),
        key=lambda item: item[0],
    ))
    return (constraint.name, items)


class ConsistencyChecker:
    """Checks a set of constraints against a deductive database."""

    def __init__(self, database: DeductiveDatabase,
                 constraints: Iterable[Constraint] = ()) -> None:
        self.database = database
        self._constraints: List[Constraint] = []
        self._by_name: Dict[str, Constraint] = {}
        #: Bumped whenever the constraint set changes, so a cached check
        #: report can tell whether it still covers every constraint.
        self.generation = 0
        #: The delta check's relevance index — predicate -> positions of
        #: the constraints mentioning it, plus each constraint's
        #: :class:`_Shape` — and the generation it was built for.
        self._index: Dict[str, Tuple[int, ...]] = {}
        self._shapes: List[_Shape] = []
        self._index_generation = -1
        self.add_constraints(constraints)

    # -- constraint registry ---------------------------------------------------

    def add_constraint(self, constraint: Constraint) -> None:
        self.add_constraints((constraint,))

    def add_constraints(self, constraints: Iterable[Constraint]) -> None:
        """Register *constraints* in order, as one change of the set."""
        constraints = list(constraints)
        names: Set[str] = set()
        for constraint in constraints:
            if constraint.name in self._by_name or constraint.name in names:
                raise ValueError(
                    f"constraint {constraint.name} already registered")
            names.add(constraint.name)
        if not constraints:
            return
        for constraint in constraints:
            self._by_name[constraint.name] = constraint
            self._constraints.append(constraint)
        self.generation += 1
        # Premises/conclusions are planned through the shared cache; a new
        # constraint may reuse a body shape with different binding needs.
        self.database.planner.invalidate()

    def remove_constraint(self, name: str) -> Constraint:
        constraint = self._by_name.pop(name)
        self._constraints.remove(constraint)
        self.generation += 1
        self.database.planner.invalidate()
        return constraint

    def constraint(self, name: str) -> Constraint:
        return self._by_name[name]

    def constraints(self) -> List[Constraint]:
        return list(self._constraints)

    def __len__(self) -> int:
        return len(self._constraints)

    # -- full check --------------------------------------------------------------

    def check(self, constraints: Optional[Sequence[Constraint]] = None,
              pool=None) -> CheckReport:
        """Full check: enumerate every premise instantiation.

        With *pool* (a ``ThreadPoolExecutor``), independent constraints
        fan out across the pool's workers, each counting into a private
        :class:`~repro.datalog.plan.EngineStats` that is merged back at
        the end; the violation list is assembled in constraint order, so
        the report is identical to a serial check regardless of worker
        count.  Called from a pool worker thread (a read task), the
        check degrades to serial instead of deadlocking on its own pool.
        """
        start = time.perf_counter()
        stats = self.database.stats
        targets = list(constraints) if constraints is not None \
            else list(self._constraints)
        if pool is not None and len(targets) > 1 and not in_pool_worker():
            return self._check_parallel(targets, pool, start)
        stats.checks_run += 1
        violations: List[Violation] = []
        seen: Set[Tuple] = set()
        tracer = self.database.obs.tracer
        with tracer.span("check.full", constraints=len(targets)) as span:
            for constraint in targets:
                constraint_start = time.perf_counter()
                with tracer.span("check.constraint",
                                 constraint=constraint.name) as cspan:
                    found = 0
                    for violation in self._check_constraint(constraint):
                        key = _violation_key(constraint,
                                             violation.substitution)
                        if key not in seen:
                            seen.add(key)
                            violations.append(violation)
                            found += 1
                    cspan.set("violations", found)
                stats.record_constraint(
                    constraint.name, time.perf_counter() - constraint_start)
            span.set("violations", len(violations))
        stats.constraints_checked += len(targets)
        stats.violations_found += len(violations)
        elapsed = time.perf_counter() - start
        return CheckReport(violations=violations,
                           constraints_checked=len(targets),
                           elapsed_seconds=elapsed, mode="full")

    def _check_parallel(self, targets: List[Constraint], pool,
                        start: float) -> CheckReport:
        """Fan independent constraints across *pool*'s worker threads.

        The database is materialized up front (saturation is not
        thread-safe; concurrent reads of a saturated extension are).
        Results are gathered and deduplicated in submission order, so
        the violation list — and therefore repair enumeration — is
        deterministic for any worker count.
        """
        database = self.database
        if hasattr(database, "materialize"):
            database.materialize()
        stats = database.stats
        stats.checks_run += 1
        tracer = database.obs.tracer

        def task(constraint: Constraint
                 ) -> Tuple[List[Violation], EngineStats]:
            worker_stats = EngineStats()
            mark_pool_worker(True)
            try:
                constraint_start = time.perf_counter()
                found = list(self._check_constraint(constraint,
                                                    stats=worker_stats))
                worker_stats.record_constraint(
                    constraint.name,
                    time.perf_counter() - constraint_start)
                return found, worker_stats
            finally:
                mark_pool_worker(False)

        violations: List[Violation] = []
        seen: Set[Tuple] = set()
        with tracer.span("check.parallel", constraints=len(targets)) as span:
            futures = [pool.submit(task, constraint)
                       for constraint in targets]
            for constraint, future in zip(targets, futures):
                found, worker_stats = future.result()
                stats.merge(worker_stats)
                for violation in found:
                    key = _violation_key(constraint, violation.substitution)
                    if key not in seen:
                        seen.add(key)
                        violations.append(violation)
            span.set("violations", len(violations))
        workers = getattr(pool, "_max_workers", 0) or 1
        stats.parallel_check_workers = max(stats.parallel_check_workers,
                                           min(workers, len(targets)))
        stats.constraints_checked += len(targets)
        stats.violations_found += len(violations)
        elapsed = time.perf_counter() - start
        return CheckReport(violations=violations,
                           constraints_checked=len(targets),
                           elapsed_seconds=elapsed, mode="full")

    def _check_constraint(self, constraint: Constraint,
                          seed: Optional[Substitution] = None,
                          stats: Optional[EngineStats] = None,
                          plan: Optional[JoinPlan] = None
                          ) -> Iterable[Violation]:
        """Violations among the premise instantiations extending *seed*.

        *plan* is the premise planned for *seed*'s bindings, when the
        caller has it already.  A warm plan under the compiled executor
        seeds its registers from *seed*; otherwise the run takes the
        interpreter (counting one tiering step, as every run does).
        """
        database = self.database
        if plan is None:
            plan = database.planner.plan(
                constraint.premise,
                _resolve_bound_vars(seed, constraint.premise))
        if plan.use_compiled(database):
            compiled = compiled_for(plan, database)
            init = _initial_codes(plan, database, seed, compiled.bound_slots)
            if init is not None:
                found = self._compiled_violations(constraint, plan, compiled,
                                                  init, seed, stats)
                if found is not None:
                    return found
            (stats if stats is not None
             else database.stats).compiled_fallbacks += 1
        return self._interpreted_violations(constraint, plan, seed)

    def _interpreted_violations(self, constraint: Constraint, plan: JoinPlan,
                                seed: Optional[Substitution]
                                ) -> Iterator[Violation]:
        for theta in plan.interpret_substitutions(self.database, seed):
            if not self._conclusion_holds(constraint.conclusion, theta):
                yield self._make_violation(constraint, theta)

    def _compiled_violations(self, constraint: Constraint, plan: JoinPlan,
                             compiled: CompiledPlan,
                             init: Sequence[Optional[int]],
                             seed: Optional[Substitution],
                             stats: Optional[EngineStats]
                             ) -> Optional[List[Violation]]:
        """One premise run through the compiled executor, code-level.

        The premise closure yields raw register tuples; the conclusion
        is tested per tuple without ever materializing a substitution —
        ``=`` / ``!=`` compare codes, ordering decodes through the
        shared symbol table, and existence disjuncts probe with
        pre-mapped registers and ``limit=1``.  The conclusion is
        prepared once per plan (:meth:`_prepare_conclusion`), so no
        planner lookup or binding resolution happens per row or per
        seed.  A substitution is decoded only for the rows that violate.
        Returns None when the conclusion cannot take the compiled path.
        """
        database = self.database
        if stats is None:
            stats = database.stats
        rows = compiled.runner(database, init, 0, stats)
        if not rows:
            return []
        conclusion = constraint.conclusion
        try:
            prepared = compiled.conclusions[conclusion]
        except KeyError:
            prepared = compiled.conclusions[conclusion] = \
                self._prepare_conclusion(plan, conclusion)
        if prepared is None:
            return None
        symbols = database.symbols
        values = symbols.values
        var_items = compiled.var_items

        def theta_of(regs) -> Substitution:
            theta: Substitution = dict(seed) if seed else {}
            for var, slot in var_items:
                theta[var] = values[regs[slot]]
            return theta

        violations: List[Violation] = []
        if isinstance(conclusion, FalseConclusion):
            for regs in rows:
                violations.append(
                    self._make_violation(constraint, theta_of(regs)))
            return violations

        if isinstance(conclusion, EqualityConclusion):
            for regs in rows:
                for op, (left_slot, left), (right_slot, right) in prepared:
                    stats.comparisons_evaluated += 1
                    if op in ("=", "!="):
                        lhs = regs[left] if left_slot else symbols.code(left)
                        rhs = regs[right] if right_slot \
                            else symbols.code(right)
                        ok = (lhs == rhs) if op == "=" else (lhs != rhs)
                    else:
                        ok = compare_values(
                            op,
                            values[regs[left]] if left_slot else left,
                            values[regs[right]] if right_slot else right)
                    if not ok:
                        violations.append(self._make_violation(
                            constraint, theta_of(regs)))
                        break
            return violations

        # ExistenceConclusion: one limit-1 probe per disjunct.
        for regs in rows:
            satisfied = False
            for runner, nslots, pairs in prepared:
                disjunct_init: List[Optional[int]] = [None] * nslots
                for premise_slot, disjunct_slot in pairs:
                    disjunct_init[disjunct_slot] = regs[premise_slot]
                if runner(database, disjunct_init, 1, stats):
                    satisfied = True
                    break
            if not satisfied:
                violations.append(
                    self._make_violation(constraint, theta_of(regs)))
        return violations

    def _prepare_conclusion(self, plan: JoinPlan, conclusion: Conclusion):
        """*conclusion* against *plan*'s registers (cached by the caller
        on the plan's :class:`CompiledPlan`, so it dies with the plan).

        Equality: ``(op, (is_slot, slot-or-value), (is_slot,
        slot-or-value))`` tests.  Existence: per disjunct, the probe
        closure, its register count, and the premise-slot ->
        disjunct-slot seed map.  None when a universal variable is not
        slotted by the premise (the run then takes the interpreter).
        """
        var_slots = plan.var_slots
        if isinstance(conclusion, FalseConclusion):
            return ()
        if isinstance(conclusion, EqualityConclusion):
            tests = []
            for comparison in conclusion.comparisons:
                sides = []
                for term in (comparison.left, comparison.right):
                    if isinstance(term, Variable):
                        slot = var_slots.get(term)
                        if slot is None:
                            return None
                        sides.append((True, slot))
                    else:
                        sides.append((False, term))
                tests.append((comparison.op, sides[0], sides[1]))
            return tuple(tests)
        if isinstance(conclusion, ExistenceConclusion):
            database = self.database
            probes = []
            for disjunct in conclusion.disjuncts:
                body = disjunct.body()
                existential = set(disjunct.exist_vars)
                bound = frozenset(
                    var
                    for element in body
                    for var in element.variables()
                    if var not in existential
                )
                disjunct_plan = database.planner.plan(body, bound)
                disjunct_compiled = compiled_for(disjunct_plan, database)
                try:
                    pairs = tuple(
                        (var_slots[var], disjunct_plan.var_slots[var])
                        for var in bound
                    )
                except KeyError:
                    return None  # universal var the premise never slots
                probes.append((disjunct_compiled.runner,
                               disjunct_plan.nslots, pairs))
            return tuple(probes)
        raise TypeError(
            f"unknown conclusion type {type(conclusion).__name__}")

    def _conclusion_holds(self, conclusion: Conclusion,
                          theta: Substitution) -> bool:
        if isinstance(conclusion, FalseConclusion):
            return False
        if isinstance(conclusion, EqualityConclusion):
            return conclusion.holds(theta)
        if isinstance(conclusion, ExistenceConclusion):
            for disjunct in conclusion.disjuncts:
                if self.database.holds(disjunct.body(), theta):
                    return True
            return False
        raise TypeError(f"unknown conclusion type {type(conclusion).__name__}")

    def _make_violation(self, constraint: Constraint,
                        theta: Substitution) -> Violation:
        relevant_vars = constraint.premise_variables()
        trimmed = tuple(sorted(
            ((var, theta[var]) for var in theta if var in relevant_vars),
            key=lambda item: item[0].name,
        ))
        premise_facts = tuple(
            literal.atom.substitute(theta)
            for literal in constraint.positive_premise_literals()
        )
        absent = tuple(
            literal.atom.substitute(theta)
            for literal in constraint.negative_premise_literals()
        )
        return Violation(constraint=constraint, theta=trimmed,
                         premise_facts=premise_facts, absent_facts=absent)

    # -- incremental check ---------------------------------------------------------

    def check_delta(self, additions: Iterable[Atom],
                    deletions: Iterable[Atom],
                    derived_before: Optional[Dict[str, Set[Tuple[object, ...]]]]
                    = None,
                    derived_delta: Optional[Dict[str, Tuple[Set[Atom],
                                                            Set[Atom]]]]
                    = None) -> CheckReport:
        """Check only instantiations that the given update can have violated.

        The update must already be applied to the database; *additions* /
        *deletions* describe it.  Sound and complete relative to a
        consistent pre-update state.  Exact derived-predicate deltas come
        from one of two sources, preferred in order: *derived_delta* —
        the per-predicate (grown, shrunk) sets accumulated by the
        engine's view maintenance
        (:meth:`~repro.datalog.engine.DeductiveDatabase.derived_delta`) —
        or *derived_before*, a :func:`snapshot_derived` copy taken before
        the update, diffed here at O(IDB) cost.  With neither, the
        checker falls back to a sound but slow over-approximation, which
        is counted in ``EngineStats.delta_fallbacks``.
        """
        start = time.perf_counter()
        additions = list(additions)
        deletions = list(deletions)
        base_added = {f.pred for f in additions}
        base_deleted = {f.pred for f in deletions}
        may_grow, may_shrink = self._polarity_closure(base_added, base_deleted)

        added_facts: Dict[str, List[Atom]] = {}
        deleted_facts: Dict[str, List[Atom]] = {}
        for fact in additions:
            added_facts.setdefault(fact.pred, []).append(fact)
        for fact in deletions:
            deleted_facts.setdefault(fact.pred, []).append(fact)
        self._extend_with_derived_deltas(may_grow, may_shrink,
                                         added_facts, deleted_facts,
                                         derived_before, derived_delta)

        # Only a constraint mentioning a touched predicate can be newly
        # violated: visit those, in registration order.
        full_preds = {key[:-len(_FULL)] for key in deleted_facts
                      if key.endswith(_FULL)}
        touched = set(full_preds)
        touched.update(pred for pred, facts in added_facts.items() if facts)
        touched.update(pred for pred, facts in deleted_facts.items()
                       if facts)
        shapes, index = self._relevance_index()
        positions: Set[int] = set()
        for pred in touched:
            positions.update(index.get(pred, ()))

        stats = self.database.stats
        stats.checks_run += 1
        violations: List[Violation] = []
        seen: Set[Tuple] = set()
        tracer = self.database.obs.tracer
        with tracer.span("check.delta",
                         base_plus=len(additions),
                         base_minus=len(deletions)) as span:
            for position in sorted(positions):
                shape = shapes[position]
                constraint = shape.constraint
                constraint_start = time.perf_counter()
                with tracer.span("check.constraint",
                                 constraint=constraint.name) as cspan:
                    found = 0
                    relevant = self._seeded_checks(shape, full_preds,
                                                   added_facts, deleted_facts)
                    for violation in relevant:
                        key = _violation_key(constraint,
                                             violation.substitution)
                        if key not in seen:
                            seen.add(key)
                            violations.append(violation)
                            found += 1
                    cspan.set("violations", found)
                stats.record_constraint(
                    constraint.name, time.perf_counter() - constraint_start)
            span.set("violations", len(violations))
        checked = len(positions)
        stats.constraints_checked += checked
        stats.violations_found += len(violations)
        elapsed = time.perf_counter() - start
        return CheckReport(violations=violations, constraints_checked=checked,
                           elapsed_seconds=elapsed, mode="delta")

    def _relevance_index(self) -> Tuple[List["_Shape"],
                                         Dict[str, Tuple[int, ...]]]:
        """Per-constraint shapes and the predicate index, rebuilt when
        :attr:`generation` has moved since the last delta check."""
        if self._index_generation != self.generation:
            shapes = [_Shape(constraint) for constraint in self._constraints]
            index: Dict[str, List[int]] = {}
            for position, shape in enumerate(shapes):
                for pred in shape.preds:
                    index.setdefault(pred, []).append(position)
            self._shapes = shapes
            self._index = {pred: tuple(found)
                           for pred, found in index.items()}
            self._index_generation = self.generation
        return self._shapes, self._index

    def _polarity_closure(self, base_added: Set[str], base_deleted: Set[str]
                          ) -> Tuple[Set[str], Set[str]]:
        """Compute which predicates may have grown / shrunk.

        Base predicates grow/shrink exactly as the delta says.  For derived
        predicates the polarity propagates through rules: a head may grow
        when a positive body predicate may grow or a negated one may
        shrink, and vice versa.
        """
        may_grow = set(base_added)
        may_shrink = set(base_deleted)
        changed = True
        while changed:
            changed = False
            for rule in self.database.program:
                head = rule.head.pred
                grow = head in may_grow
                shrink = head in may_shrink
                for element in rule.body:
                    if not isinstance(element, Literal):
                        continue
                    if element.positive:
                        grow = grow or element.pred in may_grow
                        shrink = shrink or element.pred in may_shrink
                    else:
                        grow = grow or element.pred in may_shrink
                        shrink = shrink or element.pred in may_grow
                if grow and head not in may_grow:
                    may_grow.add(head)
                    changed = True
                if shrink and head not in may_shrink:
                    may_shrink.add(head)
                    changed = True
        return may_grow, may_shrink

    def _extend_with_derived_deltas(self, may_grow: Set[str],
                                    may_shrink: Set[str],
                                    added_facts: Dict[str, List[Atom]],
                                    deleted_facts: Dict[str, List[Atom]],
                                    derived_before: Optional[
                                        Dict[str, Set[Tuple[object, ...]]]],
                                    derived_delta: Optional[
                                        Dict[str, Tuple[Set[Atom],
                                                        Set[Atom]]]] = None
                                    ) -> None:
        """Obtain concrete derived deltas for affected derived predicates.

        A maintained *derived_delta* is exact and free (the engine
        already knows which derived facts grew/shrank); a
        *derived_before* snapshot is exact but costs a diff of the
        affected predicate's extension.  With neither, grown predicates
        are over-approximated by their full current extension, and shrunk
        predicates force a full recheck of the constraints reading them
        (marked with the ``<pred>!full`` sentinel consumed by
        :meth:`_seeded_checks`) — sound in all cases, but the last is the
        slow path, so falling into it is counted.
        """
        fallbacks = 0
        for pred in sorted(may_grow | may_shrink):
            if not self.database.is_derived(pred):
                continue
            if derived_delta is not None:
                grown, shrunk = derived_delta.get(pred, ((), ()))
                added_facts.setdefault(pred, []).extend(grown)
                deleted_facts.setdefault(pred, []).extend(shrunk)
            elif derived_before is not None and pred in derived_before:
                after = {fact.args for fact in self.database.facts(pred)}
                before = derived_before[pred]
                for args in after - before:
                    added_facts.setdefault(pred, []).append(Atom(pred, args))
                for args in before - after:
                    deleted_facts.setdefault(pred, []).append(Atom(pred, args))
            else:
                fallbacks += 1
                if pred in may_grow:
                    added_facts.setdefault(pred, []).extend(
                        self.database.facts(pred))
                # Shrunk derived facts are gone; without a snapshot the
                # conclusion-side recheck must fall back to a full pass
                # over the constraint, handled in _seeded_checks.
                if pred in may_shrink:
                    deleted_facts.setdefault(pred, [])
                    deleted_facts[pred + _FULL] = []
        if fallbacks:
            self.database.stats.delta_fallbacks += fallbacks

    def _seeded_checks(self, shape: "_Shape", full_preds: Set[str],
                       added_facts: Dict[str, List[Atom]],
                       deleted_facts: Dict[str, List[Atom]]
                       ) -> Iterator[Violation]:
        """Yield violations of one constraint creatable by the delta.

        Each seeding literal is planned once per check with its own
        variables bound — exactly what a ground seed fact binds — and
        every seed fact then runs that plan through one
        :class:`~repro.datalog.compiled.Seeder`.
        """
        constraint = shape.constraint
        if not full_preds.isdisjoint(shape.preds):
            yield from self._check_constraint(constraint)
            return

        emitted: Set[Tuple] = set()

        def emit(violation: Violation) -> Iterator[Violation]:
            key = _violation_key(constraint, violation.substitution)
            if key not in emitted:
                emitted.add(key)
                yield violation

        database = self.database
        planner = database.planner
        premise = constraint.premise
        # 1. New premise matches through grown positive literals.
        # 2. New premise matches through shrunk negated literals.
        for seeding, source in ((shape.positive, added_facts),
                                (shape.negative, deleted_facts)):
            for literal, bound in seeding:
                facts = source.get(literal.pred)
                if not facts:
                    continue
                plan = planner.plan(premise, bound)
                seeder = Seeder(plan, database, literal.atom)
                for fact in facts:
                    seeded = seeder.seed(fact)
                    if seeded is None:
                        continue
                    compiled, bound_seed = seeded
                    if compiled is None:
                        found = self._interpreted_violations(
                            constraint, plan, bound_seed)
                    else:
                        found = self._compiled_violations(
                            constraint, plan, compiled, bound_seed,
                            seed=None, stats=None)
                        if found is None:
                            database.stats.compiled_fallbacks += 1
                            found = self._interpreted_violations(
                                constraint, plan, match(literal.atom, fact))
                    for violation in found:
                        yield from emit(violation)
        # 3. Conclusion support removed: premise instantiations whose
        #    existence conclusion may have used a deleted fact.
        universal = shape.universal
        for atom, bound in shape.support:
            facts = deleted_facts.get(atom.pred)
            if not facts:
                continue
            plan = planner.plan(premise, bound)
            for fact in facts:
                seed_full = unify(atom, fact)
                if seed_full is None:
                    continue
                seed = {
                    var: value
                    for var, value in seed_full.items()
                    if var in universal
                }
                for violation in self._check_constraint(constraint, seed,
                                                        plan=plan):
                    yield from emit(violation)


class _Shape:
    """What the delta check needs of one constraint, computed once per
    constraint-set generation: the predicates it mentions, and per
    seeding literal or conclusion atom the premise variables a seed
    binds."""

    __slots__ = ("constraint", "preds", "positive", "negative",
                 "universal", "support")

    def __init__(self, constraint: Constraint) -> None:
        self.constraint = constraint
        self.preds = frozenset(constraint.predicates())
        self.positive = tuple(
            (literal, frozenset(literal.variables()))
            for literal in constraint.positive_premise_literals())
        self.negative = tuple(
            (literal, frozenset(literal.variables()))
            for literal in constraint.negative_premise_literals())
        self.universal = frozenset(constraint.universal_variables())
        premise_vars = constraint.premise_variables()
        support: List[Tuple[Atom, FrozenSet[Variable]]] = []
        if isinstance(constraint.conclusion, ExistenceConclusion):
            for disjunct in constraint.conclusion.disjuncts:
                for atom in disjunct.atoms:
                    support.append((atom, frozenset(
                        var for var in atom.variables()
                        if var in self.universal and var in premise_vars)))
        self.support = tuple(support)


def snapshot_derived(database: DeductiveDatabase,
                     preds: Optional[Iterable[str]] = None
                     ) -> Dict[str, Set[Tuple[object, ...]]]:
    """Snapshot derived extensions for later exact delta computation.

    The session layer calls this at BES (begin of evolution session) and
    hands the result to :meth:`ConsistencyChecker.check_delta` at EES.
    """
    if preds is None:
        preds = [p for p in database.program.derived_predicates()]
    return {
        pred: {fact.args for fact in database.facts(pred)}
        for pred in preds
        if database.is_derived(pred)
    }
