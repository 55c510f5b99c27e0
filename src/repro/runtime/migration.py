"""The online migration engine: lazy conversion at production scale.

The paper's conversion cure (§3.5) rewrites every instance *inside* the
evolution session — correct, but a stop-the-world migration that no
store survives once bases hold millions of objects.  The masking
machinery already hints at the alternative ("each object pays the
conversion cost on first touch only", :mod:`repro.runtime.handlers`);
this module generalizes it into a full migration engine:

* **Version-tagged objects** — every :class:`~repro.runtime.objects.
  GomObject` carries a ``schema_version`` stamped at creation.  A lazy
  cure no longer loops over instances: it registers a
  :class:`PendingMigration` (a per-attribute plan of
  :class:`SlotAction`\\ s) and bumps the type's current version, making
  the EES commit O(1) in the instance count.
* **Convert-on-touch** — the runtime's ``get_attr`` / ``set_attr`` /
  ``call`` entry points call :meth:`MigrationEngine.touch`, which
  detects a stale tag and replays the object's pending-migration chain
  through the undo-recording slot mutators before serving the access,
  so touched-then-rolled-back sessions leave no residue.
* **A throttled background migrator** — :class:`BackgroundMigrator`
  drains the cold remainder in short writer-lock-holding batches
  (batch size + sleep budget, pause/resume), each batch a normal
  evolution session so WAL replay and snapshot readers compose with it.
* **An impact advisor** — :meth:`MigrationEngine.advise` queries
  ``PhRep`` / ``Slot`` / ``CodeReq*`` against an open session's net
  delta *before* EES, reporting affected methods, per-type instance
  counts and the migration debt each cure would create, ranking
  eager-convert vs mask vs lazy-convert by cost.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.errors import ConversionError
from repro.datalog.terms import Atom
from repro.gom.ids import Id
from repro.control.session import EvolutionSession

#: Instance populations at or below this size are cheap enough to
#: convert eagerly inside the session; above it the advisor recommends
#: lazy conversion (the session must stay fast regardless of base size).
EAGER_THRESHOLD = 1024


@dataclass(frozen=True)
class SlotAction:
    """One per-attribute step of a pending migration.

    ``kind`` is ``"add"`` (fill the slot from *source*, unless the
    object already holds a value and *overwrite* is off) or ``"drop"``
    (remove the slot value).  *source* follows
    :data:`repro.runtime.conversion.ValueSource`: a constant, a
    per-object callable, or — with *value_is_operation* — the name of an
    operation evaluated on the old instance.
    """

    kind: str
    attr: str
    source: object = None
    value_is_operation: bool = False
    overwrite: bool = False


@dataclass(frozen=True)
class PendingMigration:
    """One registered version step of a type: from → to, with a plan."""

    tid: Id
    from_version: int
    to_version: int
    actions: Tuple[SlotAction, ...]


class MigrationEngine:
    """Version tags, pending-migration chains, and the drain machinery."""

    def __init__(self, runtime) -> None:
        self.runtime = runtime
        self.model = runtime.model
        #: Per-type chain of registered version steps.  Never compacted:
        #: an object's tag indexes into this chain, so resetting it
        #: would make old tags skip future steps silently.
        self._steps: Dict[Id, List[PendingMigration]] = {}
        #: Re-entrancy guard: migration plans may call operations or
        #: per-object callables that themselves touch the object.
        self._in_flight: Set[Id] = set()

    @property
    def obs(self):
        return self.model.db.obs

    # -- version tags ----------------------------------------------------------

    def version_of(self, tid: Id) -> int:
        """The current migration version of *tid* (new objects start here)."""
        return len(self._steps.get(tid, ()))

    def debt(self) -> int:
        """Objects still awaiting lazy conversion (the background debt)."""
        return sum(1 for _ in self.stale_objects())

    def stale_objects(self, limit: Optional[int] = None) -> List[object]:
        """Up to *limit* stale objects, in deterministic (tid, oid) order."""
        stale: List[object] = []
        for obj in self._iter_stale():
            stale.append(obj)
            if limit is not None and len(stale) >= limit:
                break
        return stale

    def _iter_stale(self) -> Iterator[object]:
        instances = self.runtime._instances_by_type
        # Key-function sorts: comparison sorting over Id.__lt__ builds
        # two sort keys per comparison and dominates large drains.
        for tid in sorted(self._steps, key=Id._sort_key):
            target = len(self._steps[tid])
            for oid in sorted(instances.get(tid, ()), key=Id._sort_key):
                obj = self.runtime._objects[oid]
                if obj.schema_version < target:
                    yield obj

    # -- registering lazy cures ------------------------------------------------

    def add_slot(self, type_ref, attr: str, source,
                 session: Optional[EvolutionSession] = None,
                 value_is_operation: bool = False,
                 overwrite: bool = False) -> int:
        """The lazy counterpart of :meth:`ConversionRoutines.add_slot`.

        Inserts the ``Slot`` fact for every representation in the
        subtype cone (so constraint (*) holds at EES) and registers a
        pending ``add`` step for every instantiated type — **no object
        is visited**.  Returns the migration debt created (instances
        that will convert on first touch or in the background drain).
        """
        return self._register_cure(type_ref, attr, session, insert=True,
                                   action=lambda: SlotAction(
                                       "add", attr, source,
                                       value_is_operation, overwrite))

    def delete_slot(self, type_ref, attr: str,
                    session: Optional[EvolutionSession] = None) -> int:
        """The lazy counterpart of :meth:`ConversionRoutines.delete_slot`.

        Removes the ``Slot`` facts across the subtype cone, unregisters
        any masking handlers for the attribute (with a session undo),
        and registers a pending ``drop`` step per instantiated type.
        Returns the migration debt created.
        """
        return self._register_cure(type_ref, attr, session, insert=False,
                                   action=lambda: SlotAction("drop", attr))

    def _register_cure(self, type_ref, attr, session, insert, action) -> int:
        runtime = self.runtime
        tid = runtime._resolve_type(type_ref)
        attrs = dict(self.model.attributes(tid, inherited=True))
        if insert and attr not in attrs:
            raise ConversionError(
                f"type {self.model.type_name(tid)!r} has no attribute "
                f"{attr!r} — add the attribute before converting")
        active, owned = runtime._auto_session(session)
        debt = 0
        try:
            if insert:
                domain_rep = runtime._phrep_for_domain(active, attrs[attr])
                for clid in self._phreps_in_cone(tid):
                    fact = Atom("Slot", (clid, attr, domain_rep))
                    if not self.model.db.edb.contains(fact):
                        active.add(fact)
            else:
                for clid in self._phreps_in_cone(tid):
                    for fact in list(self.model.db.matching(
                            Atom("Slot", (clid, attr, None)))):
                        active.remove(fact)
                registry = runtime.handlers
                for cone_tid in self._cone_types(tid):
                    previous = registry.entry(cone_tid, attr)
                    if any(entry is not None for entry in previous):
                        active.record_undo(
                            lambda t=cone_tid, p=previous:
                            registry.restore(t, attr, p))
                        registry.unregister(cone_tid, attr)
                    deferred = runtime.undefer_masked_slot(cone_tid, attr)
                    if deferred is not None:
                        active.record_undo(
                            lambda t=cone_tid, d=deferred:
                            runtime.restore_deferred_slot(t, attr, d))
            for affected in self._affected_types(tid):
                debt += self._register_step(active, affected, (action(),))
        except Exception:
            if owned:
                active.rollback()
            raise
        if owned:
            active.commit()
        return debt

    def _register_step(self, session: EvolutionSession, tid: Id,
                       actions: Tuple[SlotAction, ...]) -> int:
        chain = self._steps.setdefault(tid, [])
        step = PendingMigration(tid=tid, from_version=len(chain),
                                to_version=len(chain) + 1, actions=actions)
        chain.append(step)

        def undo(tid=tid, step=step):
            chain = self._steps.get(tid)
            if chain and chain[-1] is step:
                chain.pop()
                if not chain:
                    del self._steps[tid]
        session.record_undo(undo)
        # Every live instance is stale by construction: all were stamped
        # at version <= from_version < to_version (a touch only reaches
        # the chain head, which this step just became), so the debt this
        # step creates is the instance count — no O(n) version scan.
        stale = len(self.runtime._instances_by_type.get(tid, ()))
        obs = self.obs
        if obs.enabled:
            obs.metrics.counter("migration.registered").inc(stale)
            obs.metrics.gauge("migration.debt").set(self.debt())
        return stale

    def _cone_types(self, tid: Id) -> List[Id]:
        """*tid* and every subtype that has a representation or instances."""
        cone = set()
        for fact in self.model.db.matching(Atom("PhRep", (None, None))):
            other = fact.args[1]
            if other == tid or self.model.is_subtype(other, tid):
                cone.add(other)
        for other in self.runtime._instances_by_type:
            if other == tid or self.model.is_subtype(other, tid):
                cone.add(other)
        return sorted(cone)

    def _phreps_in_cone(self, tid: Id) -> List[Id]:
        clids = []
        for fact in self.model.db.matching(Atom("PhRep", (None, None))):
            clid, other = fact.args
            if other == tid or self.model.is_subtype(other, tid):
                clids.append(clid)
        return sorted(clids)

    def _affected_types(self, tid: Id) -> List[Id]:
        """Instantiated types whose objects the new step applies to."""
        return sorted(
            other for other in self.runtime._instances_by_type
            if other == tid or self.model.is_subtype(other, tid))

    # -- convert-on-touch ------------------------------------------------------

    def touch(self, obj) -> bool:
        """Bring *obj* up to its type's current version; True if converted.

        Runs the full pending chain through the runtime's undo-recording
        slot mutators, so a touch inside a session that later rolls back
        restores both the slots and the version tag.
        """
        steps = self._steps.get(obj.tid)
        if not steps or obj.schema_version >= len(steps) \
                or obj.oid in self._in_flight:
            return False
        self._in_flight.add(obj.oid)
        try:
            self._migrate(obj, steps)
        finally:
            self._in_flight.discard(obj.oid)
        obs = self.obs
        if obs.enabled:
            obs.metrics.counter("migration.converted").inc()
        return True

    def _migrate(self, obj, steps: List[PendingMigration]) -> None:
        runtime = self.runtime
        target = len(steps)
        for step in steps[obj.schema_version:]:
            for act in step.actions:
                if act.kind == "add":
                    if act.attr in obj.slots and not act.overwrite:
                        continue
                    value = self._produce(obj, act)
                    runtime.store_slot(obj, act.attr, value)
                elif act.kind == "drop":
                    runtime.drop_slot(obj, act.attr)
                else:  # pragma: no cover - guarded at construction
                    raise ConversionError(
                        f"unknown migration action {act.kind!r}")
        self._stamp(obj, target)

    def _produce(self, obj, act: SlotAction):
        if act.value_is_operation:
            if not isinstance(act.source, str):
                raise ConversionError(
                    "value_is_operation requires an operation name")
            return self.runtime.call(obj, act.source)
        if callable(act.source):
            return act.source(obj)
        return act.source

    def _stamp(self, obj, version: int) -> None:
        active = self.runtime.open_session()
        if active is not None:
            old = obj.schema_version

            def undo(obj=obj, old=old):
                obj.schema_version = old
            active.record_undo(undo)
        obj.schema_version = version

    # -- draining --------------------------------------------------------------

    def drain_in_session(self, session: EvolutionSession,
                         limit: Optional[int] = None) -> int:
        """Convert up to *limit* stale objects inside an open session."""
        converted = 0
        for obj in self.stale_objects(limit):
            if self.touch(obj):
                converted += 1
        return converted

    def background(self, batch_size: int = 256,
                   sleep_s: float = 0.0) -> "BackgroundMigrator":
        """A throttled :class:`BackgroundMigrator` over this engine."""
        return BackgroundMigrator(self, batch_size=batch_size,
                                  sleep_s=sleep_s)

    # -- the impact advisor ----------------------------------------------------

    def advise(self, session: EvolutionSession) -> "ImpactReport":
        """What the open session's schema delta will cost at runtime.

        Inspects the net delta for attribute additions and removals and
        reports, per affected attribute: instance counts across the
        subtype cone, how many objects actually need converting, the
        methods whose code requires the attribute (via ``CodeReqAttr``),
        and the cure options ranked by cost.
        """
        additions, deletions = session.net_delta()
        impacts: List[AttributeImpact] = []
        for change, facts in (("added", additions), ("removed", deletions)):
            for fact in facts:
                if fact.pred != "Attr":
                    continue
                tid, attr, _domain = fact.args
                impacts.append(self._impact(tid, attr, change))
        return ImpactReport(impacts=tuple(impacts),
                            migration_debt=self.debt())

    def _impact(self, tid: Id, attr: str, change: str) -> "AttributeImpact":
        objects = self.runtime.objects_of(tid, include_subtypes=True)
        instances = len(objects)
        if change == "added":
            pending = sum(1 for obj in objects if attr not in obj.slots)
        else:
            pending = sum(1 for obj in objects if attr in obj.slots)
        return AttributeImpact(
            type_name=self.model.type_name(tid) or repr(tid),
            attr=attr, change=change, instances=instances,
            pending=pending,
            affected_methods=self._affected_methods(tid, attr),
            options=self._options(change, pending))

    def _affected_methods(self, tid: Id, attr: str) -> Tuple[str, ...]:
        """``Type.operation`` names whose code requires (tid, attr)."""
        db = self.model.db
        if not db.is_base("CodeReqAttr"):
            return ()
        methods = set()
        for req in db.matching(Atom("CodeReqAttr", (None, None, attr))):
            codeid, req_tid, _attr = req.args
            if req_tid != tid and not self.model.is_subtype(req_tid, tid) \
                    and not self.model.is_subtype(tid, req_tid):
                continue
            for code in db.matching(Atom("Code", (codeid, None, None))):
                declid = code.args[2]
                for decl in db.matching(Atom("Decl",
                                             (declid, None, None, None))):
                    receiver, opname = decl.args[1], decl.args[2]
                    owner = self.model.type_name(receiver) or repr(receiver)
                    methods.add(f"{owner}.{opname}")
        return tuple(sorted(methods))

    def _options(self, change: str, pending: int) -> Tuple["CureOption", ...]:
        eager = CureOption(
            cure="eager-convert", session_work=pending, deferred_work=0,
            note="converts every instance inside the session")
        lazy = CureOption(
            cure="lazy-convert", session_work=0, deferred_work=pending,
            note="O(1) commit; instances convert on touch or in the "
                 "background drain")
        mask = CureOption(
            cure="mask", session_work=0, deferred_work=0,
            note="no conversion; every access pays the handler")
        if change == "removed":
            # Masking cannot hide values that must *disappear*.
            ranked = (lazy, eager) if pending > EAGER_THRESHOLD \
                else (eager, lazy)
        elif pending <= EAGER_THRESHOLD:
            ranked = (eager, lazy, mask)
        else:
            ranked = (lazy, mask, eager)
        return ranked


@dataclass(frozen=True)
class CureOption:
    """One cure, costed: work at EES vs work deferred to the drain."""

    cure: str
    session_work: int
    deferred_work: int
    note: str


@dataclass(frozen=True)
class AttributeImpact:
    """What one attribute addition/removal costs the object base."""

    type_name: str
    attr: str
    change: str
    #: Instances across the subtype cone.
    instances: int
    #: Instances that actually need converting (missing the slot for an
    #: addition; still holding it for a removal).
    pending: int
    affected_methods: Tuple[str, ...]
    #: Cure options, cheapest-overall first.
    options: Tuple[CureOption, ...]

    @property
    def recommended(self) -> CureOption:
        return self.options[0]


@dataclass(frozen=True)
class ImpactReport:
    """The advisor's answer: per-attribute impacts + current debt."""

    impacts: Tuple[AttributeImpact, ...]
    migration_debt: int

    def describe(self) -> str:
        if not self.impacts:
            return ("no attribute additions or removals in this session "
                    f"(current migration debt: {self.migration_debt})")
        lines = []
        for impact in self.impacts:
            lines.append(
                f"{impact.change} {impact.type_name}.{impact.attr}: "
                f"{impact.pending}/{impact.instances} instance(s) to "
                f"convert, {len(impact.affected_methods)} dependent "
                f"method(s)")
            for method in impact.affected_methods:
                lines.append(f"    requires: {method}")
            for option in impact.options:
                marker = "->" if option is impact.recommended else "  "
                lines.append(
                    f"  {marker} {option.cure}: {option.session_work} in "
                    f"session, {option.deferred_work} deferred — "
                    f"{option.note}")
        lines.append(f"current migration debt: {self.migration_debt}")
        return "\n".join(lines)


class BackgroundMigrator:
    """Drains migration debt in short writer-lock-holding batches.

    Each batch is one normal evolution session (label
    ``migration.batch``): it serializes with schema writers on the
    writer lock, coexists with :class:`~repro.service.SchemaService`
    snapshot readers (which never take the lock), and — on durable
    models — annotates the WAL, so a crash mid-drain loses at most the
    uncommitted batch and re-draining reconverges.
    """

    def __init__(self, engine: MigrationEngine, batch_size: int = 256,
                 sleep_s: float = 0.0) -> None:
        self.engine = engine
        self.batch_size = batch_size
        self.sleep_s = sleep_s
        self.converted = 0
        self.batches = 0
        self._stop = threading.Event()
        self._resume = threading.Event()
        self._resume.set()
        self._thread: Optional[threading.Thread] = None

    def run_once(self, batch_size: Optional[int] = None) -> int:
        """One batch: open a session, convert up to *batch_size*, commit.

        Returns the number of objects converted (0 = drained).  Opens
        its own session, so it must not run on a thread that already
        holds one open.
        """
        engine = self.engine
        size = batch_size or self.batch_size
        obs = engine.obs
        started = time.perf_counter()
        session = EvolutionSession(engine.model, label="migration.batch")
        try:
            converted = engine.drain_in_session(session, limit=size)
            if converted:
                session.annotate(f"migration.batch: {converted} object(s)")
                session.commit()
            else:
                session.rollback()
        except BaseException:
            if session.active:
                session.rollback()
            raise
        if converted:
            self.converted += converted
            self.batches += 1
            if obs.enabled:
                obs.metrics.counter("migration.batches").inc()
                obs.metrics.counter(
                    "migration.background_converted").inc(converted)
                obs.metrics.histogram("migration.batch_ms").observe(
                    (time.perf_counter() - started) * 1000.0)
        if obs.enabled:
            obs.metrics.gauge("migration.debt").set(engine.debt())
        return converted

    def drain(self, max_batches: Optional[int] = None) -> int:
        """Run batches until the debt is zero (or stopped/capped)."""
        total = 0
        batches = 0
        while not self._stop.is_set():
            self._resume.wait()
            if self._stop.is_set():
                break
            converted = self.run_once()
            total += converted
            if converted == 0:
                break
            batches += 1
            if max_batches is not None and batches >= max_batches:
                break
            if self.sleep_s:
                time.sleep(self.sleep_s)
        return total

    # -- thread control --------------------------------------------------------

    def start(self) -> "BackgroundMigrator":
        """Drain on a daemon thread; pause/resume/stop control it."""
        if self._thread is not None and self._thread.is_alive():
            return self
        self._stop.clear()
        self._thread = threading.Thread(target=self.drain, daemon=True,
                                        name="migration-drain")
        self._thread.start()
        return self

    def pause(self) -> None:
        self._resume.clear()

    def resume(self) -> None:
        self._resume.set()

    def stop(self) -> None:
        self._stop.set()
        self._resume.set()

    def join(self, timeout: Optional[float] = None) -> None:
        if self._thread is not None:
            self._thread.join(timeout)
