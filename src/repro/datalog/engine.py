"""Bottom-up evaluation: the deductive database itself.

:class:`DeductiveDatabase` combines the EDB (:class:`FactStore`), the IDB
(:class:`Program`), and a materialized store of derived facts with full
provenance.  Evaluation is stratified semi-naive; within one stratum the
engine iterates to a *derivation* fixpoint so the provenance index is
complete (every derivation of every derived fact is recorded), which is
what makes support-based incremental maintenance and repair generation
exact.

Rule bodies, constraint premises, and ad-hoc queries all evaluate
through compiled join plans (:mod:`repro.datalog.plan`): a shared
:class:`~repro.datalog.plan.QueryPlanner` reorders each conjunction
cost-based and drives per-position hash-index lookups instead of
scan-and-match.  The planner's cache is invalidated whenever the rule
set changes; :class:`~repro.datalog.plan.EngineStats` counts what every
evaluation actually did.

Incremental maintenance comes in two flavours, selected by the
``maintenance=`` constructor flag:

* ``"delta"`` (the default) — *view maintenance*: once the derived
  predicates are materialized, a base-fact delta is propagated through
  the strata in place.  Insertions run the semi-naive delta rounds
  against the current extension; deletions over-delete through the
  provenance support maps and re-derive survivors (DRed), including
  flips through negated body literals at stratum boundaries.  The
  engine accumulates exact per-predicate derived deltas per session
  (:meth:`DeductiveDatabase.derived_delta`), which the incremental
  checker consumes directly.
* ``"recompute"`` — the predicate-level baseline: a base-fact delta
  invalidates exactly the derived predicates that transitively depend
  on the changed base predicates; those — and only those — are cleared
  and re-saturated on next read.  Kept for A/B benchmarking and used
  transparently while the extension is cold (e.g. bulk loads and WAL
  replay), where lazy recompute beats eager propagation.
"""

from __future__ import annotations

import itertools
import os
import time
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import UnknownPredicateError
from repro.datalog.builtins import Comparison
from repro.datalog.compiled import (
    Seeder,
    derive_rows,
    head_spec,
    run_rule_derivations,
)
from repro.datalog.facts import FactStore, PredicateDecl, Relation
from repro.datalog.plan import EngineStats, JoinPlan, QueryPlanner
from repro.datalog.provenance import Derivation, DerivationTree, ProvenanceIndex
from repro.datalog.rules import BodyElement, Program, Rule, stratify
from repro.datalog.symbols import SymbolTable
from repro.datalog.terms import Atom, Literal, Substitution, match
from repro.obs import Observability, NOOP_OBS


def resolve_executor(executor: Optional[str]) -> str:
    """Normalize an executor choice, defaulting from ``REPRO_EXECUTOR``.

    ``"compiled"`` (the default) lowers each cached join plan to a
    specialized closure over interned codes
    (:mod:`repro.datalog.compiled`); ``"interpreted"`` keeps the
    recursive-generator reference executor.  The environment override
    lets the CI benchmark smoke and the differential tests run the same
    suite in both modes without code changes.
    """
    if executor is None:
        executor = os.environ.get("REPRO_EXECUTOR", "compiled")
    if executor not in ("compiled", "interpreted"):
        raise ValueError(f"executor must be 'compiled' or 'interpreted', "
                         f"got {executor!r}")
    return executor


class DeductiveDatabase:
    """EDB + IDB + materialized derived facts with provenance."""

    def __init__(self, decls: Iterable[PredicateDecl] = (),
                 rules: Iterable[Rule] = (),
                 maintenance: str = "delta",
                 obs: Optional[Observability] = None,
                 executor: Optional[str] = None) -> None:
        if maintenance not in ("delta", "recompute"):
            raise ValueError(f"maintenance must be 'delta' or 'recompute', "
                             f"got {maintenance!r}")
        #: Maintenance strategy for derived predicates; may be switched at
        #: runtime (recovery replay temporarily forces "recompute").
        self.maintenance = maintenance
        #: Join executor: "compiled" plan closures or the "interpreted"
        #: reference (default from ``REPRO_EXECUTOR``, else "compiled").
        self.executor = resolve_executor(executor)
        #: Observability bundle (tracing / metrics / profiling); the
        #: default no-op bundle keeps instrumentation points free.
        self.obs = obs if obs is not None else NOOP_OBS
        self.stats = EngineStats()
        #: One append-only constant table shared by the EDB, the derived
        #: store, and every snapshot forked from them — codes are
        #: comparable across all of them by construction.
        self.symbols = SymbolTable()
        self.edb = FactStore(stats=self.stats, symbols=self.symbols)
        self.program = Program()
        self._derived_store = FactStore(stats=self.stats,
                                        symbols=self.symbols)
        self.provenance = ProvenanceIndex()
        self.planner = QueryPlanner(self)
        self._strata: List[Set[str]] = []
        self._fresh: Set[str] = set()  # derived preds with current extension
        # Exact per-predicate derived deltas accumulated since the last
        # reset_derived_delta() — the session-scoped grown/shrunk sets the
        # incremental checker consumes.  Tainted means "unknown": some
        # change bypassed maintenance (stale predicate, rule change,
        # rollback), so consumers must fall back to a sound approximation.
        self._session_grown: Dict[str, Set[Atom]] = {}
        self._session_shrunk: Dict[str, Set[Atom]] = {}
        self._delta_tainted = True
        for decl in decls:
            self.declare(decl)
        for rule in rules:
            self.add_rule(rule)

    # -- instrumentation ------------------------------------------------------

    def begin_stats(self) -> EngineStats:
        """Install (and return) a fresh instrumentation context.

        Called at BES by the session layer; the previous
        :class:`EngineStats` object keeps its final values, so older
        references stay meaningful after the swap.
        """
        stats = EngineStats()
        self.stats = stats
        self.edb.set_stats(stats)
        self._derived_store.set_stats(stats)
        return stats

    # -- snapshot export ------------------------------------------------------

    def export_snapshot(self):
        """An immutable :class:`~repro.datalog.snapshot.SnapshotDatabase`
        of the current extension (EDB + saturated IDB).

        Saturates any stale derived predicate first, then forks both
        stores copy-on-write — O(predicates), no bucket copying.  The
        caller must hold writer exclusivity (no concurrent mutation)
        for the duration of this call; afterwards the snapshot is safe
        to read from any number of threads while the live database
        keeps evolving.
        """
        from repro.datalog.snapshot import SnapshotDatabase
        self.materialize()
        stats = EngineStats()
        snapshot = SnapshotDatabase(
            edb=self.edb.fork_shared(stats=stats),
            derived=self._derived_store.fork_shared(stats=stats),
            stats=stats, obs=self.obs, executor=self.executor)
        if self.obs.enabled:
            self.obs.metrics.counter("engine.snapshots_exported").inc()
        return snapshot

    # -- declarations and rules ---------------------------------------------

    def declare(self, decl: PredicateDecl) -> None:
        """Declare a base predicate."""
        self.edb.declare(decl)

    def add_rule(self, rule: Rule) -> None:
        """Add an IDB rule; the head predicate becomes derived."""
        self.program.add(rule)
        head = rule.head
        if not self._derived_store.is_declared(head.pred):
            argnames = tuple(f"a{i}" for i in range(head.arity))
            self._derived_store.declare(
                PredicateDecl(head.pred, argnames, derived=True)
            )
        self._strata = stratify(self.program)
        self._fresh.clear()
        self._delta_tainted = True
        self.planner.invalidate()

    def add_rules(self, rules: Iterable[Rule]) -> None:
        for rule in rules:
            self.add_rule(rule)

    def is_derived(self, pred: str) -> bool:
        return self._derived_store.is_declared(pred)

    def is_base(self, pred: str) -> bool:
        return self.edb.is_declared(pred)

    def is_declared(self, pred: str) -> bool:
        return self.is_base(pred) or self.is_derived(pred)

    def decl(self, pred: str) -> PredicateDecl:
        if self.edb.is_declared(pred):
            return self.edb.decl(pred)
        return self._derived_store.decl(pred)

    # -- EDB updates ----------------------------------------------------------

    def add_fact(self, fact: Atom) -> bool:
        """Insert a base fact, maintaining dependent derived predicates."""
        added = self.edb.add(fact)
        if added:
            self._propagate({fact.pred: {fact}}, {})
        return added

    def remove_fact(self, fact: Atom) -> bool:
        """Delete a base fact, maintaining dependent derived predicates."""
        removed = self.edb.remove(fact)
        if removed:
            self._propagate({}, {fact.pred: {fact}})
        return removed

    def apply_delta(self, additions: Iterable[Atom] = (),
                    deletions: Iterable[Atom] = ()) -> Tuple[int, int]:
        """Apply a set of insertions and deletions; returns effective counts."""
        plus: Dict[str, Set[Atom]] = {}
        minus: Dict[str, Set[Atom]] = {}
        added = removed = 0
        for fact in deletions:
            if self.edb.remove(fact):
                removed += 1
                minus.setdefault(fact.pred, set()).add(fact)
        for fact in additions:
            if self.edb.add(fact):
                added += 1
                plus.setdefault(fact.pred, set()).add(fact)
        if plus or minus:
            self._propagate(plus, minus)
        return added, removed

    def _propagate(self, plus: Dict[str, Set[Atom]],
                   minus: Dict[str, Set[Atom]]) -> None:
        """Bring derived predicates up to date with an applied base delta.

        In ``"delta"`` mode, and when every affected derived predicate is
        currently materialized, the delta is propagated in place
        (:meth:`_maintain`).  Otherwise — maintenance disabled, or the
        extension is cold (bulk load, replay) — the affected predicates
        are merely invalidated and lazily recomputed on next read, which
        taints the session delta accounting.
        """
        changed = set(plus) | set(minus)
        affected = self.program.affected_by(changed)
        if not affected:
            return
        if self.maintenance != "delta" or not affected <= self._fresh:
            self._invalidate(changed)
            return
        self._maintain(plus, minus, affected)

    def _invalidate(self, base_preds: Set[str]) -> None:
        affected = self.program.affected_by(base_preds)
        if affected:
            self._fresh -= affected
            self._delta_tainted = True

    def invalidate(self, base_preds: Iterable[str]) -> None:
        """Mark derived predicates depending on *base_preds* stale.

        Needed after out-of-band extension changes such as a session
        rollback restoring an EDB snapshot.
        """
        self._invalidate(set(base_preds))

    # -- session-scoped derived deltas ---------------------------------------

    def reset_derived_delta(self) -> None:
        """Start exact derived-delta accounting from the current extension.

        Called at BES after :meth:`materialize`; the accounting stays
        exact only while every change flows through maintenance, so it is
        tainted from the start if any derived predicate is still stale.
        """
        self._session_grown.clear()
        self._session_shrunk.clear()
        self._delta_tainted = any(
            pred not in self._fresh
            for pred in self._derived_store.predicates()
        )

    def discard_derived_delta(self) -> None:
        """Invalidate the derived-delta accounting until the next reset.

        Called when the extension changes out of band (session rollback
        restoring an EDB snapshot): whatever the accumulators hold no
        longer describes any live session, so they are cleared and the
        accounting is tainted — :meth:`derived_delta` answers None until
        a BES calls :meth:`reset_derived_delta` again.
        """
        self._session_grown.clear()
        self._session_shrunk.clear()
        self._delta_tainted = True

    def derived_delta(self) -> Optional[Dict[str, Tuple[Set[Atom],
                                                        Set[Atom]]]]:
        """Exact per-predicate (grown, shrunk) sets since the last reset.

        Returns None when the accounting is tainted — some change
        bypassed maintenance — in which case callers must fall back to a
        snapshot diff or a conservative over-approximation.  Predicates
        absent from the mapping are unchanged.
        """
        if self._delta_tainted:
            return None
        return {
            pred: (set(self._session_grown.get(pred, ())),
                   set(self._session_shrunk.get(pred, ())))
            for pred in set(self._session_grown) | set(self._session_shrunk)
        }

    def _accumulate_delta(self, pred: str, grown: Iterable[Atom] = (),
                          shrunk: Iterable[Atom] = ()) -> None:
        """Fold one predicate's net change into the session accounting.

        A fact that shrinks after growing (or vice versa) within one
        session cancels out, so the accumulated sets always describe the
        net difference against the extension at the last reset.
        """
        grown_set = self._session_grown.setdefault(pred, set())
        shrunk_set = self._session_shrunk.setdefault(pred, set())
        for fact in grown:
            if fact in shrunk_set:
                shrunk_set.discard(fact)
            else:
                grown_set.add(fact)
        for fact in shrunk:
            if fact in grown_set:
                grown_set.discard(fact)
            else:
                shrunk_set.add(fact)

    # -- queries --------------------------------------------------------------

    def contains(self, fact: Atom) -> bool:
        """Is *fact* true (base or derived)?"""
        if self.edb.is_declared(fact.pred):
            return self.edb.contains(fact)
        self._ensure_fresh(fact.pred)
        return self._derived_store.contains(fact)

    def facts(self, pred: str) -> Iterator[Atom]:
        """Yield every true fact of *pred* (base or derived)."""
        if self.edb.is_declared(pred):
            yield from self.edb.facts(pred)
            return
        self._ensure_fresh(pred)
        yield from self._derived_store.facts(pred)

    def matching(self, pattern: Atom) -> Iterator[Atom]:
        """Yield true facts matching *pattern* (base or derived)."""
        if self.edb.is_declared(pattern.pred):
            yield from self.edb.matching(pattern)
            return
        self._ensure_fresh(pattern.pred)
        yield from self._derived_store.matching(pattern)

    def relation(self, pred: str) -> Relation:
        """The indexed relation backing *pred*, materialized if derived.

        The row-level access path of the plan executor: one attribute
        chase instead of per-fact Atom construction.
        """
        if self.edb.is_declared(pred):
            return self.edb.relation(pred)
        self._ensure_fresh(pred)
        return self._derived_store.relation(pred)

    def count(self, pred: str) -> int:
        if self.edb.is_declared(pred):
            return self.edb.count(pred)
        self._ensure_fresh(pred)
        return self._derived_store.count(pred)

    def derivations(self, fact: Atom):
        """All recorded derivations of a derived fact."""
        self._ensure_fresh(fact.pred)
        return self.provenance.derivations(fact)

    def derivation_tree(self, fact: Atom) -> DerivationTree:
        self._ensure_fresh(fact.pred)
        return self.provenance.tree(fact, self.is_derived)

    # -- evaluation -------------------------------------------------------------

    def materialize(self, force: bool = False) -> None:
        """(Re)compute every stale derived predicate, stratum by stratum."""
        if force:
            self._fresh.clear()
        stale = self._derived_store.predicates()
        stale = [p for p in stale if p not in self._fresh]
        if not stale:
            return
        self._recompute(set(stale))

    def _ensure_fresh(self, pred: str) -> None:
        if not self._derived_store.is_declared(pred):
            raise UnknownPredicateError(f"unknown predicate {pred}")
        if pred in self._fresh:
            return
        # Recompute this predicate together with every stale predicate it
        # depends on; dependencies that are fresh are reused as-is.
        needed = {
            p for p in self.program.depends_on(pred)
            if self._derived_store.is_declared(p) and p not in self._fresh
        }
        self._recompute(needed)

    def _recompute(self, preds: Set[str]) -> None:
        """Re-evaluate the derived predicates in *preds*, lowest strata first.

        Predicates not in *preds* keep their current extension (they are
        fresh by construction of the callers).
        """
        # Recomputed extensions are not delta-tracked: anything observed
        # through this path is unknown to the session accounting.
        self._delta_tainted = True
        with self.obs.span("engine.saturate", preds=len(preds)) as span:
            for pred in preds:
                self.provenance.clear_predicate(pred)
                self._derived_store.clear(pred)
            for stratum in self._strata:
                todo = stratum & preds
                if not todo:
                    continue
                rules = self.program.rules_defining(sorted(todo))
                # Mark the stratum fresh *before* saturating: recursive
                # rules legitimately read their own (in-progress)
                # extension, and saturation iterates to the fixpoint
                # regardless.
                self._fresh.update(todo)
                self._saturate(rules)
            if self.obs.enabled:
                span.set("facts", sum(self._derived_store.count(p)
                                      for p in preds))
                self.obs.metrics.counter("engine.saturations").inc()

    def _rule_derivations(self, rule: Rule, plan: JoinPlan
                          ) -> List[Tuple[Atom, Tuple[Atom, ...],
                                          Tuple[Atom, ...]]]:
        """``(head fact, positive supports, negative supports)`` triples
        for one unseeded rule body plan, buffered.

        Buffering matters: every caller records derivations into the
        stores the evaluation reads.  Under the compiled executor the
        head atom is decoded straight from the final join registers —
        no substitution dict per derivation; the interpreted path
        substitutes into the head as before.
        """
        if plan.use_compiled(self):
            results = run_rule_derivations(plan, self, rule.head)
            if results is not None:
                return results
        return self._interpreted_derivations(rule, plan, None)

    def _interpreted_derivations(self, rule: Rule, plan: JoinPlan,
                                 seed: Optional[Substitution]
                                 ) -> List[Tuple[Atom, Tuple[Atom, ...],
                                                 Tuple[Atom, ...]]]:
        return [(rule.head.substitute(theta), pos, neg)
                for theta, pos, neg in
                list(plan.interpret_derivations(self, seed))]

    def _seeded_derivations(self, rule: Rule, seeder: Seeder, fact: Atom
                            ) -> Optional[List[Tuple[Atom, Tuple[Atom, ...],
                                                     Tuple[Atom, ...]]]]:
        """:meth:`_rule_derivations` for the run *seeder* binds from the
        ground *fact*, or None when the fact does not match its pattern.

        A warm plan is seeded straight into registers (no substitution
        dict); a cold one runs on the interpreter from the match.
        """
        seeded = seeder.seed(fact)
        if seeded is None:
            return None
        compiled, bound = seeded
        if compiled is not None:
            head = rule.head
            spec = head_spec(compiled, seeder.plan, head)
            if spec is not None:
                return derive_rows(compiled, self, head.pred, spec, bound)
            self.stats.compiled_fallbacks += 1
            bound = match(seeder.pattern, fact)
        return self._interpreted_derivations(rule, seeder.plan, bound)

    def _saturate(self, rules: Sequence[Rule]) -> None:
        """Iterate *rules* to a derivation fixpoint (complete provenance).

        Semi-naive: after a full first round, later rounds only evaluate
        rule instantiations seeded by a fact derived in the previous
        round.  Every new derivation must use at least one such fact in a
        recursive body position (otherwise it would have been found
        earlier), so provenance stays complete while the work per round
        is proportional to the delta, not to the whole extension.  Both
        rounds run through compiled join plans; the delta rounds plan
        with the seed literal's variables pre-bound, so every other body
        literal joins through the indexes.
        """
        stratum_preds = {rule.head.pred for rule in rules}
        delta: Set[Atom] = set()
        for rule in rules:
            plan = self.planner.plan(rule.body)
            for fact, pos, neg in self._rule_derivations(rule, plan):
                derivation = Derivation(
                    fact=fact,
                    rule_name=rule.name,
                    positive_supports=pos,
                    negative_supports=neg,
                )
                if self.provenance.record(derivation):
                    if self._derived_store.add(derivation.fact):
                        delta.add(derivation.fact)
        self._delta_rounds(rules, stratum_preds, delta)

    def _delta_rounds(self, rules: Sequence[Rule], stratum_preds: Set[str],
                      delta: Set[Atom]) -> Tuple[Set[Atom], int]:
        """Semi-naive delta rounds: propagate *delta* to the fixpoint.

        Each round evaluates only rule instantiations seeded by a fact
        derived in the previous round, through plans with the seed
        literal's variables pre-bound.  Returns every fact newly added
        across the rounds and the number of rounds run.  Shared between
        full saturation (where *delta* is the first round's harvest) and
        insertion maintenance (where it is the seeded delta itself).
        """
        all_added: Set[Atom] = set()
        rounds = 0
        while delta:
            rounds += 1
            new_delta: Set[Atom] = set()
            by_pred: Dict[str, List[Atom]] = {}
            for fact in delta:
                by_pred.setdefault(fact.pred, []).append(fact)
            for rule in rules:
                for element in rule.body:
                    if not (isinstance(element, Literal)
                            and element.positive):
                        continue
                    if element.pred not in stratum_preds:
                        continue
                    facts = by_pred.get(element.pred)
                    if not facts:
                        continue
                    seeder = Seeder(
                        self.planner.plan(rule.body,
                                          frozenset(element.variables())),
                        self, element.atom)
                    for fact in facts:
                        results = self._seeded_derivations(rule, seeder,
                                                           fact)
                        if results is None:
                            continue
                        for fact, pos, neg in results:
                            derivation = Derivation(
                                fact=fact,
                                rule_name=rule.name,
                                positive_supports=pos,
                                negative_supports=neg,
                            )
                            if self.provenance.record(derivation):
                                if self._derived_store.add(
                                        derivation.fact):
                                    new_delta.add(derivation.fact)
            all_added |= new_delta
            delta = new_delta
        return all_added, rounds

    # -- incremental view maintenance ----------------------------------------

    def _maintain(self, plus: Dict[str, Set[Atom]],
                  minus: Dict[str, Set[Atom]], affected: Set[str]) -> None:
        """Propagate an applied base delta through the strata in place.

        Per stratum, in order: (A) over-delete — every fact with a
        derivation through a deleted support, or blocked by an added
        negative support, is dropped, transitively within the stratum
        (DRed's pessimistic phase); (B) re-derive — each over-deleted
        fact is re-proved head-first against the surviving extension,
        iterated so chains among re-derived facts settle and provenance
        stays complete; (C) insert — semi-naive rounds seeded both by
        added facts in positive body positions and by deleted facts in
        negated positions (a removal can *enable* derivations through
        negation at a stratum boundary).  The stratum's net change then
        joins the delta seen by the strata above, and the session's
        grown/shrunk accounting.

        Precondition (checked by :meth:`_propagate`): every predicate in
        *affected* is fresh, hence so is everything it depends on.
        """
        started = time.perf_counter()
        stats = self.stats
        obs = self.obs
        with obs.span("engine.maintain",
                      base_plus=sum(map(len, plus.values())),
                      base_minus=sum(map(len, minus.values()))) as span:
            delta_plus: Dict[str, Set[Atom]] = {p: set(s)
                                                for p, s in plus.items()}
            delta_minus: Dict[str, Set[Atom]] = {p: set(s)
                                                 for p, s in minus.items()}
            for stratum in self._strata:
                todo = stratum & affected
                if not todo:
                    continue
                rules = self.program.rules_defining(sorted(todo))
                deleted = self._overdelete(todo, delta_plus, delta_minus)
                stats.maint_deleted += len(deleted)
                rederived = (self._rederive(rules, deleted)
                             if deleted else set())
                stats.maint_rederived += len(rederived)
                inserted = self._insert_seeded(rules, todo, delta_plus,
                                               delta_minus)
                # Net the stratum: a fact both over-deleted (and not
                # re-derived) and re-inserted kept its truth value; a fact
                # inserted fresh grew; a deletion that stuck shrank.
                for fact in deleted:
                    if fact in rederived or fact in inserted:
                        continue
                    delta_minus.setdefault(fact.pred, set()).add(fact)
                for fact in inserted:
                    if fact in deleted:
                        continue
                    delta_plus.setdefault(fact.pred, set()).add(fact)
            for pred, facts in delta_plus.items():
                if facts and self.is_derived(pred):
                    self._accumulate_delta(pred, grown=facts)
            for pred, facts in delta_minus.items():
                if facts and self.is_derived(pred):
                    self._accumulate_delta(pred, shrunk=facts)
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            stats.maint_ms += elapsed_ms
            if obs.enabled:
                span.set("derived_plus",
                         sum(len(s) for p, s in delta_plus.items()
                             if self.is_derived(p)))
                span.set("derived_minus",
                         sum(len(s) for p, s in delta_minus.items()
                             if self.is_derived(p)))
                obs.metrics.counter("engine.maintain_calls").inc()
                obs.metrics.histogram("engine.maintain_round_ms").observe(
                    elapsed_ms)

    def _overdelete(self, todo: Set[str], delta_plus: Dict[str, Set[Atom]],
                    delta_minus: Dict[str, Set[Atom]]) -> Set[Atom]:
        """DRed phase A: drop every fact of *todo* whose support may be gone.

        Suspects are facts with a derivation through a deleted support
        (positive) or through the absence of a now-added atom (negative);
        deletion cascades through same-stratum supports.  Over-deletion
        is deliberate — survivors come back in :meth:`_rederive`.
        """
        suspects: List[Atom] = []
        for facts in delta_minus.values():
            for fact in facts:
                for dependent in self.provenance.facts_supported_by(fact):
                    if dependent.pred in todo:
                        suspects.append(dependent)
        for facts in delta_plus.values():
            for fact in facts:
                for dependent in self.provenance.facts_blocked_by(fact):
                    if dependent.pred in todo:
                        suspects.append(dependent)
        deleted: Set[Atom] = set()
        while suspects:
            fact = suspects.pop()
            if fact in deleted:
                continue
            deleted.add(fact)
            for dependent in self.provenance.facts_supported_by(fact):
                if dependent.pred in todo and dependent not in deleted:
                    suspects.append(dependent)
            self.provenance.drop_fact(fact)
            self._derived_store.remove(fact)
        return deleted

    def _rederive(self, rules: Sequence[Rule],
                  deleted: Set[Atom]) -> Set[Atom]:
        """DRed phase B: re-prove over-deleted facts against the survivors.

        Each candidate is evaluated head-first: the rule head is matched
        against the fact, and the body plan runs with every head variable
        pre-bound, so only derivations of exactly that fact are
        enumerated.  Iterated to a fixpoint because a fact re-derived in
        a later round can complete derivations (and provenance entries)
        for facts handled earlier.
        """
        rules_by_head: Dict[str, List[Rule]] = {}
        for rule in rules:
            rules_by_head.setdefault(rule.head.pred, []).append(rule)
        # One head-seeded plan per rule, planned on first use.
        seeders: Dict[int, Seeder] = {}
        rederived: Set[Atom] = set()
        changed = True
        while changed:
            changed = False
            for fact in deleted:
                for rule in rules_by_head.get(fact.pred, ()):
                    seeder = seeders.get(id(rule))
                    if seeder is None:
                        seeder = seeders[id(rule)] = Seeder(
                            self.planner.plan(
                                rule.body,
                                frozenset(rule.head.variables())),
                            self, rule.head)
                    results = self._seeded_derivations(rule, seeder, fact)
                    if results is None:
                        continue
                    for _fact, pos, neg in results:
                        derivation = Derivation(
                            fact=fact,
                            rule_name=rule.name,
                            positive_supports=pos,
                            negative_supports=neg,
                        )
                        if self.provenance.record(derivation):
                            changed = True
                            if self._derived_store.add(fact):
                                rederived.add(fact)
        return rederived

    def _insert_seeded(self, rules: Sequence[Rule], todo: Set[str],
                       delta_plus: Dict[str, Set[Atom]],
                       delta_minus: Dict[str, Set[Atom]]) -> Set[Atom]:
        """Insertion maintenance: seed new derivations from the delta.

        Seeds come from two directions: added facts matched against
        positive body literals, and deleted facts matched against negated
        literals (the atom's absence now satisfies the negation — the
        stratum-boundary flip).  Facts derived here then drive the shared
        semi-naive rounds for within-stratum recursion.
        """
        inserted: Set[Atom] = set()
        seed_delta: Set[Atom] = set()
        for rule in rules:
            for element in rule.body:
                if not isinstance(element, Literal):
                    continue
                source = delta_plus if element.positive else delta_minus
                facts = source.get(element.pred)
                if not facts:
                    continue
                seeder = Seeder(
                    self.planner.plan(rule.body,
                                      frozenset(element.variables())),
                    self, element.atom)
                for fact in facts:
                    results = self._seeded_derivations(rule, seeder, fact)
                    if results is None:
                        continue
                    for head_fact, pos, neg in results:
                        derivation = Derivation(
                            fact=head_fact,
                            rule_name=rule.name,
                            positive_supports=pos,
                            negative_supports=neg,
                        )
                        if self.provenance.record(derivation):
                            if self._derived_store.add(derivation.fact):
                                seed_delta.add(derivation.fact)
        self.stats.maint_insert_rounds += 1
        inserted |= seed_delta
        if seed_delta:
            added, rounds = self._delta_rounds(rules, todo, seed_delta)
            inserted |= added
            self.stats.maint_insert_rounds += rounds
        return inserted

    # -- convenience ------------------------------------------------------------

    def query(self, body: Sequence[BodyElement],
              theta: Optional[Substitution] = None) -> Iterator[Substitution]:
        """Yield substitutions (over the body's variables) satisfying *body*.

        Evaluation is plan-driven: the body is compiled (or fetched from
        the shared plan cache) with the bindings of *theta* taken as
        given, then executed against the relation indexes.
        """
        body = tuple(body)
        theta = dict(theta) if theta else {}
        plan = self.planner.plan_for(body, theta)
        yield from plan.substitutions(self, theta)

    def holds(self, body: Sequence[BodyElement],
              theta: Optional[Substitution] = None) -> bool:
        """True when at least one substitution satisfies *body*."""
        plan = self.planner.plan_for(tuple(body), theta)
        return plan.probe(self, theta)
