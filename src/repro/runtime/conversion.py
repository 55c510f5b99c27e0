"""Object conversion routines (§3.5).

"The implementation of the conversion routines must be present in the
Runtime System.  These conversion routines must be able to, e.g., add or
delete slots."  A ``+Slot`` repair detected by the Consistency Control
is *executed* by :meth:`ConversionRoutines.add_slot`, which updates the
object-base model and fills the new slot of every instance.  The value
source is exactly the paper's three options: "providing a default value,
by asking the user for every instance, or by providing an operation
that — called on the old instances — provides a value for the new slot".
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Union

from repro.errors import ConversionError
from repro.datalog.terms import Atom
from repro.gom.ids import Id
from repro.gom.model import GomDatabase
from repro.control.session import EvolutionSession
from repro.runtime.objects import GomObject, RuntimeSystem

#: A value source: a constant default, a per-object callable (the
#: "asking the user for every instance" channel), or the name of an
#: operation to call on each old instance.
ValueSource = Union[object, Callable[[GomObject], object], str]


class ConversionRoutines:
    """The cures the runtime can execute on physical representations.

    Cures are transactional with respect to the session that carries
    them: every per-object slot mutation goes through the runtime's
    undo-recording writes (:meth:`RuntimeSystem.store_slot` /
    :meth:`~RuntimeSystem.drop_slot`), so a caller-owned
    session that rolls back restores the object base together with the
    schema — objects are never left converted against a schema change
    that never happened.
    """

    def __init__(self, runtime: RuntimeSystem) -> None:
        self.runtime = runtime
        self.model: GomDatabase = runtime.model

    # -- adding a slot (the paper's fuelType example) ----------------------------

    def add_slot(self, tid: Id, attr: str, source: ValueSource,
                 session: Optional[EvolutionSession] = None,
                 value_is_operation: bool = False,
                 overwrite: bool = False) -> int:
        """Add a slot for *attr* to the representation of *tid* and fill
        it on every instance.  Returns the number of converted objects.

        The attribute must already exist in the schema (the schema change
        precedes the cure).  *source* is a constant, a callable
        ``object -> value``, or — with *value_is_operation* — the name of
        an operation evaluated on each instance.

        Instances that already hold a value for *attr* (e.g. filled by a
        masking handler's materialization, or written mid-session) keep
        it; pass ``overwrite=True`` to clobber them with *source*.
        """
        attrs = dict(self.model.attributes(tid, inherited=True))
        if attr not in attrs:
            raise ConversionError(
                f"type {self.model.type_name(tid)!r} has no attribute "
                f"{attr!r} — add the attribute before converting")
        clid = self.model.phrep_of(tid)
        if clid is None:
            raise ConversionError(
                f"type {self.model.type_name(tid)!r} has no instances, "
                f"nothing to convert")
        active, owned = self.runtime._auto_session(session)
        converted = 0
        try:
            domain_rep = self.runtime._phrep_for_domain(active, attrs[attr])
            slot_fact = Atom("Slot", (clid, attr, domain_rep))
            if not self.model.db.edb.contains(slot_fact):
                active.add(slot_fact)
            for obj in self.runtime.objects_of(tid):
                if attr in obj.slots and not overwrite:
                    continue
                value = self._produce(obj, source, value_is_operation)
                self.runtime.set_attr(obj, attr, value)
                converted += 1
        except Exception:
            if owned:
                active.rollback()
            raise
        if owned:
            active.commit()
        return converted

    def _produce(self, obj: GomObject, source: ValueSource,
                 value_is_operation: bool) -> object:
        if value_is_operation:
            if not isinstance(source, str):
                raise ConversionError(
                    "value_is_operation requires an operation name")
            return self.runtime.call(obj, source)
        if callable(source):
            return source(obj)
        return source

    # -- the masking cure (ENCORE-style, Skarra & Zdonik) ----------------------------

    def mask_with_handler(self, tid: Id, attr: str, reader: ValueSource,
                          writer=None, materialize: bool = False,
                          session: Optional[EvolutionSession] = None) -> None:
        """Cure a missing-slot inconsistency by *masking*, not converting.

        Inserts the ``Slot`` fact (so constraint (*) holds) but touches
        **no object**: reads of the missing value run the *reader*
        (a constant or a per-object callable); writes run the optional
        *writer* or store directly.  With ``materialize=True`` the first
        read writes the value back — lazy conversion, amortizing the
        paper's "no time for reorganization" concern.
        """
        attrs = dict(self.model.attributes(tid, inherited=True))
        if attr not in attrs:
            raise ConversionError(
                f"type {self.model.type_name(tid)!r} has no attribute "
                f"{attr!r} — add the attribute before masking")
        runtime = self.runtime
        registry = runtime.handlers
        active, owned = runtime._auto_session(session)
        try:
            clid = self.model.phrep_of(tid)
            if clid is not None:
                domain_rep = runtime._phrep_for_domain(active, attrs[attr])
                slot_fact = Atom("Slot", (clid, attr, domain_rep))
                if not self.model.db.edb.contains(slot_fact):
                    active.add(slot_fact)
            # Defer the layout fact regardless: a representation minted
            # later (the type used as an attribute domain before it has
            # instances, or re-minted after the last instance died) must
            # start with the masked slot, or it violates constraint (*).
            previous_deferred = runtime.defer_masked_slot(
                tid, attr, attrs[attr])
            previous_entry = registry.entry(tid, attr)
            active.record_undo(
                lambda: registry.restore(tid, attr, previous_entry))
            active.record_undo(
                lambda: runtime.restore_deferred_slot(tid, attr,
                                                      previous_deferred))
            read_handler = reader if callable(reader) else (
                lambda obj, value=reader: value)
            registry.register_read(tid, attr, read_handler,
                                   materialize=materialize)
            if writer is not None:
                registry.register_write(tid, attr, writer)
        except Exception:
            if owned:
                active.rollback()
            raise
        if owned:
            active.commit()

    # -- deleting a slot -------------------------------------------------------------

    def delete_slot(self, tid: Id, attr: str,
                    session: Optional[EvolutionSession] = None) -> int:
        """Remove a slot from the representation of *tid*, drop the
        value from every instance, and unregister any masking handlers
        for the attribute (a stale handler would resurrect values of the
        deleted slot).  All of it is transactional on the session."""
        runtime = self.runtime
        registry = runtime.handlers
        clid = self.model.phrep_of(tid)
        previous_entry = registry.entry(tid, attr)
        has_handlers = any(part is not None for part in previous_entry)
        has_deferred = attr in runtime.deferred_masked_slots(tid)
        if clid is None and not has_handlers and not has_deferred:
            return 0
        active, owned = runtime._auto_session(session)
        removed = 0
        try:
            if clid is not None:
                for fact in list(self.model.db.matching(
                        Atom("Slot", (clid, attr, None)))):
                    active.remove(fact)
                for obj in runtime.objects_of(tid):
                    if attr in obj.slots:
                        runtime.drop_slot(obj, attr)
                        removed += 1
            if has_handlers:
                active.record_undo(
                    lambda: registry.restore(tid, attr, previous_entry))
                registry.unregister(tid, attr)
            if has_deferred:
                previous_deferred = runtime.undefer_masked_slot(tid, attr)
                active.record_undo(
                    lambda: runtime.restore_deferred_slot(
                        tid, attr, previous_deferred))
        except Exception:
            if owned:
                active.rollback()
            raise
        if owned:
            active.commit()
        return removed

    # -- syncing after repairs ----------------------------------------------------------

    def fill_new_slots(self, tid: Id,
                       sources: Dict[str, ValueSource],
                       session: Optional[EvolutionSession] = None) -> int:
        """After a ``+Slot`` repair was applied at the model level, fill
        the slot values of every instance (protocol step 9: 'the
        Consistency Control initiates the execution of the chosen repair
        by the … Runtime System').

        Runs through :meth:`RuntimeSystem._auto_session` like every
        other cure: it joins the given (or model-active) session so a
        later rollback also unfills the slots, and when it has to open
        its own session the fills commit — and reach the durable
        evolution log — as one atomic session.
        """
        active, owned = self.runtime._auto_session(session)
        converted = 0
        for obj in self.runtime.objects_of(tid):
            for attr, source in sources.items():
                if attr not in obj.slots:
                    value = self._produce(obj, source, False)
                    self.runtime.set_attr(obj, attr, value)
                    converted += 1
        if owned:
            active.commit()
        return converted

    def delete_all_instances(self, tid: Id,
                             session: Optional[EvolutionSession] = None
                             ) -> int:
        """The paper's "brute force" cure: delete all instances of the
        type (what the ``-PhRep`` repair means)."""
        objects = self.runtime.objects_of(tid)
        active, owned = self.runtime._auto_session(session)
        for obj in objects:
            self.runtime.delete_object(obj.oid, session=active)
        if owned:
            active.commit()
        return len(objects)
