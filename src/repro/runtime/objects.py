"""The object store and the object-base model maintenance.

Objects are instances of types; all instances of one type share one
physical representation (``PhRep``) whose layout is a set of ``Slot``
facts.  The store maintains both through the Consistency Control:
creating the first instance of a type adds its ``PhRep`` and ``Slot``
facts, deleting the last instance removes them — so the paper's
invariant "a fact is present in the extension of PhRep iff there exists
at least one object of the type" holds by construction.

Attribute access goes through :meth:`RuntimeSystem.get_attr` /
:meth:`set_attr`, which fall back to **fashion** masking when the object
is an old type version being used as a newer one.  The schema answers
that access needs (attribute domains, fashion codes, operation bindings,
domain facts) come from one memo per EDB generation, see
:meth:`RuntimeSystem.lookup`.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.errors import (
    GomTypeError,
    RuntimeSystemError,
    UnknownObjectError,
    UnknownSlotError,
)
from repro.datalog.terms import Atom
from repro.gom.builtins import value_conforms
from repro.gom.ids import Id
from repro.gom.model import GomDatabase
from repro.control.session import EvolutionSession
from repro.runtime.masking import fashion_attr_codes, substitutable

T = TypeVar("T")


@dataclass(slots=True)
class GomObject:
    """One stored object: identity, type, and slot values.

    Slot values are built-in scalars, enum value names, or the ``oid`` of
    another stored object.
    """

    oid: Id
    tid: Id
    slots: Dict[str, object] = field(default_factory=dict)
    #: Migration version stamped at creation; when the type's current
    #: version moves past it the object is *stale* and converts on
    #: first touch (see :mod:`repro.runtime.migration`).
    schema_version: int = 0

    def __repr__(self) -> str:
        return f"<{self.oid} : {self.tid}>"


class RuntimeSystem:
    """Object management on top of a :class:`GomDatabase`."""

    def __init__(self, model: GomDatabase) -> None:
        self.model = model
        self._objects: Dict[Id, GomObject] = {}
        self._instances_by_type: Dict[Id, set] = {}
        from repro.runtime.interpreter import Interpreter
        from repro.runtime.explain import runtime_explainer
        from repro.runtime.handlers import HandlerRegistry
        from repro.runtime.migration import MigrationEngine
        # The interpreter, the explainer and the migration engine point
        # back at the runtime weakly (the interpreter keeps its own weak
        # reference): strong back-references would put the runtime in
        # reference cycles, so a dropped manager and its whole object
        # base would wait for a full collection.
        this = weakref.proxy(self)
        self.interpreter = Interpreter(self)
        self.explainer = runtime_explainer(self.model, this)
        self.handlers = HandlerRegistry()
        self.migrations = MigrationEngine(this)
        #: Masked slots deferred until the type's representation exists:
        #: (tid -> attr -> domain).  ``mask_with_handler`` on a type with
        #: no PhRep records the layout fact here, and
        #: :meth:`_phrep_for_domain` inserts it the moment a bare
        #: representation is minted — otherwise that representation
        #: would start out violating constraint (*).
        self._deferred_slots: Dict[Id, Dict[str, Id]] = {}
        #: ``(key, answers)`` of :meth:`lookup`, replaced as one tuple so
        #: a concurrent reader never pairs a key with another
        #: generation's answers.
        self._memo: Tuple[tuple, Dict[tuple, object]] = ((), {})
        #: Weak references to the open session that created objects and
        #: to the list its single undo entry discards (see
        #: :meth:`_created_in`); both die when that session ends.
        self._created: Optional[Tuple[weakref.ref, weakref.ref]] = None

    # -- session plumbing ------------------------------------------------------

    def open_session(self) -> Optional[EvolutionSession]:
        """The evolution session open on this thread, if any.

        A session belongs to the thread that began it.  One open on
        another thread (a background drain batch) must not receive this
        thread's writes or undo entries: it may commit, roll back or
        close under them.
        """
        active = getattr(self.model, "active_session", None)
        if active is not None and active.active \
                and active.owner_thread == threading.get_ident():
            return active
        return None

    def _auto_session(self, session: Optional[EvolutionSession]
                      ) -> Tuple[EvolutionSession, bool]:
        """Use the given session, join this thread's open one, or open a
        short-lived session of our own (returned flag = we own it)."""
        if session is not None:
            return session, False
        active = self.open_session()
        if active is not None:
            return active, False
        fresh = EvolutionSession(self.model)
        fresh.register_explainer(self.explainer)
        return fresh, True

    # -- schema answers, memoized per EDB generation -----------------------------

    def lookup(self, compute: Callable[..., T], *args) -> T:
        """``compute(self.model, *args)``, memoized for the model's state.

        The object path asks the same schema questions on every access;
        *compute* is the helper that answers one (``fashion_attr_codes``,
        an operation binding, ...) and stays the only place the answer
        is worked out.  The memo is keyed by the EDB's modification
        generation and the rule count.  Every answer is a function of
        the EDB and the rules (``Attr_i``, ``Decl_i``, ``SubTypRel_t``
        are maintained from them); the generation only grows, through
        rollbacks and direct ``model.modify`` calls too; and declaring
        a predicate without facts changes no answer.  So when the key
        moves the whole memo is dropped.  Answers are shared between
        callers: never mutate one.
        """
        db = self.model.db
        key = (db.edb.generation(), len(db.program))
        memo = self._memo
        if memo[0] != key:
            memo = self._memo = (key, {})
        entry = (compute, *args)
        answers = memo[1]
        try:
            return answers[entry]
        except KeyError:
            answer = answers[entry] = compute(self.model, *args)
            return answer

    # -- object lifecycle ---------------------------------------------------------

    def objects_of(self, tid: Id, include_subtypes: bool = False
                   ) -> List[GomObject]:
        oids = set(self._instances_by_type.get(tid, ()))
        if include_subtypes:
            for other_tid, members in self._instances_by_type.items():
                if self.model.is_subtype(other_tid, tid):
                    oids.update(members)
        return [self._objects[oid] for oid in sorted(oids)]

    def count_objects(self) -> int:
        return len(self._objects)

    def get(self, oid: Id) -> GomObject:
        try:
            return self._objects[oid]
        except KeyError:
            raise UnknownObjectError(f"no object {oid!r}") from None

    def exists(self, oid: Id) -> bool:
        return oid in self._objects

    def create_object(self, type_ref, values: Dict[str, object],
                      session: Optional[EvolutionSession] = None
                      ) -> GomObject:
        """Instantiate a type.

        *type_ref* is a type id or a type name; *values* must provide a
        conforming value for every attribute, including inherited ones
        (GOM is strongly typed — there are no half-initialized objects).
        """
        tid = self._resolve_type(type_ref)
        attrs = self.lookup(_attribute_domains, tid)
        missing = sorted(set(attrs) - set(values))
        extra = sorted(set(values) - set(attrs))
        if missing:
            raise GomTypeError(
                f"missing value(s) for attribute(s) {', '.join(missing)} "
                f"of type {self.model.type_name(tid)!r}")
        if extra:
            raise GomTypeError(
                f"unknown attribute(s) {', '.join(extra)} for type "
                f"{self.model.type_name(tid)!r}")
        for name, value in values.items():
            self._check_conforms(attrs[name], value, name)
        active, owned = self._auto_session(session)
        try:
            self._ensure_phrep(active, tid, attrs)
            oid = self.model.ids.object()
            obj = GomObject(oid=oid, tid=tid, slots=dict(values),
                            schema_version=self.migrations.version_of(tid))
            self._objects[oid] = obj
            self._instances_by_type.setdefault(tid, set()).add(oid)
            # The PhRep/Slot facts roll back via the EDB snapshot; the
            # object store needs explicit compensation.
            self._created_in(active).append(obj)
        except Exception:
            if owned:
                active.rollback()
            raise
        if owned:
            active.commit()
        return obj

    def _created_in(self, session: EvolutionSession) -> List[GomObject]:
        """The objects *session* created, undone by one entry on it.

        Bulk creation in one session records a single undo entry instead
        of one closure per object.  Only the session's undo entry holds
        the list; the runtime keeps weak references, so neither outlives
        the session.
        """
        created = self._created
        objects = created[1]() if created is not None \
            and created[0]() is session else None
        if objects is None:
            objects = _CreatedObjects()
            session.record_undo(lambda: self._discard_created(objects))
            self._created = (weakref.ref(session), weakref.ref(objects))
        return objects

    def _discard_created(self, objects: List[GomObject]) -> None:
        """Rollback of a session's creations, newest first."""
        for obj in reversed(objects):
            self._discard_object(obj)
        objects.clear()

    def _discard_object(self, obj: GomObject) -> None:
        """Remove *obj* from the store (rollback of a create)."""
        self._objects.pop(obj.oid, None)
        members = self._instances_by_type.get(obj.tid)
        if members is not None:
            members.discard(obj.oid)
            if not members:
                del self._instances_by_type[obj.tid]

    def _restore_object(self, obj: GomObject) -> None:
        """Re-insert *obj* into the store (rollback of a delete)."""
        self._objects[obj.oid] = obj
        self._instances_by_type.setdefault(obj.tid, set()).add(obj.oid)

    def delete_object(self, oid: Id,
                      session: Optional[EvolutionSession] = None) -> None:
        """Delete an object; the last instance retracts the PhRep/Slots."""
        obj = self.get(oid)
        active, owned = self._auto_session(session)
        del self._objects[oid]
        active.record_undo(lambda: self._restore_object(obj))
        members = self._instances_by_type.get(obj.tid)
        if members is not None:
            members.discard(oid)
            if not members:
                del self._instances_by_type[obj.tid]
                self._retract_phrep(active, obj.tid)
        if owned:
            active.commit()

    def _resolve_type(self, type_ref) -> Id:
        if isinstance(type_ref, Id):
            return type_ref
        tid = None
        if isinstance(type_ref, str):
            # Accept "Name" (searched across schemas) or "Name@Schema".
            if "@" in type_ref:
                name, schema_name = type_ref.split("@", 1)
                sid = self.model.schema_id(schema_name)
                if sid is not None:
                    tid = self.model.type_id(name, sid)
            else:
                tid = self.model.type_id(type_ref)
                if tid is None:
                    for fact in self.model.db.matching(
                            Atom("Type", (None, type_ref, None))):
                        tid = fact.args[0]
                        break
        if tid is None:
            raise RuntimeSystemError(f"cannot resolve type {type_ref!r}")
        return tid

    # -- PhRep / Slot maintenance ------------------------------------------------------

    def _ensure_phrep(self, session: EvolutionSession, tid: Id,
                      attrs: Dict[str, Id]) -> Id:
        existing = self.model.phrep_of(tid)
        if existing is not None:
            return existing
        clid = self.model.ids.phrep()
        additions = [Atom("PhRep", (clid, tid))]
        for name, domain in sorted(attrs.items()):
            domain_rep = self._phrep_for_domain(session, domain)
            additions.append(Atom("Slot", (clid, name, domain_rep)))
        session.modify(additions=additions)
        return clid

    def _phrep_for_domain(self, session: EvolutionSession,
                          domain: Id) -> Id:
        """The representation id slot values of this domain use.

        Built-in sorts have well-known representations; enum sorts get
        one on demand (their values always exist); object domains use the
        domain type's PhRep, which exists because a conforming value had
        to be created first — if none exists yet, the dangling reference
        is reported at EES by constraint (*)'s referential integrity.
        """
        existing = self.model.phrep_of(domain)
        if existing is not None:
            return existing
        if self.model.is_enum(domain):
            clid = self.model.ids.phrep()
            session.add(Atom("PhRep", (clid, domain)))
            return clid
        # Leave a dangling-but-checkable layout: create the domain rep
        # lazily so that instantiating the domain type later reuses it.
        clid = self.model.ids.phrep()
        session.add(Atom("PhRep", (clid, domain)))
        # A masked attribute recorded before this representation existed
        # must appear in its layout, or the new PhRep starts out
        # violating constraint (*).  The PhRep fact is added first so a
        # self-referential attribute domain resolves to this clid.
        for attr, attr_domain in sorted(
                self._deferred_slots.get(domain, {}).items()):
            domain_rep = self._phrep_for_domain(session, attr_domain)
            slot_fact = Atom("Slot", (clid, attr, domain_rep))
            if not self.model.db.edb.contains(slot_fact):
                session.add(slot_fact)
        return clid

    def _retract_phrep(self, session: EvolutionSession, tid: Id) -> None:
        clid = self.model.phrep_of(tid)
        if clid is None:
            return
        deletions = [Atom("PhRep", (clid, tid))]
        for fact in self.model.db.matching(Atom("Slot", (clid, None, None))):
            deletions.append(fact)
        session.modify(deletions=deletions)

    # -- undo-recording slot mutators -----------------------------------------------------

    def store_slot(self, obj: GomObject, attr: str, value: object) -> None:
        """Write a slot value, recording its inverse on the open session.

        The one write path for attribute writes, cures and lazy
        materialization: when an evolution session is open on this
        thread, the previous state of the slot (old value, or absence)
        is registered as an undo entry first, so a later rollback
        restores the object.
        """
        self._record_slot_undo(obj, attr)
        obj.slots[attr] = value

    def drop_slot(self, obj: GomObject, attr: str) -> None:
        """Remove a slot value (if present), recording undo likewise."""
        if attr in obj.slots:
            self._record_slot_undo(obj, attr)
            del obj.slots[attr]

    def _record_slot_undo(self, obj: GomObject, attr: str) -> None:
        active = self.open_session()
        if active is None:
            return
        if attr in obj.slots:
            old = obj.slots[attr]

            def undo(obj=obj, attr=attr, old=old):
                obj.slots[attr] = old
        else:
            def undo(obj=obj, attr=attr):
                obj.slots.pop(attr, None)
        active.record_undo(undo)

    # -- deferred masked slots ------------------------------------------------------------

    def defer_masked_slot(self, tid: Id, attr: str,
                          domain: Id) -> Optional[Id]:
        """Record a masked slot to insert when *tid*'s PhRep is minted.

        Returns the previously deferred domain (None if none) so the
        caller can undo the deferral on rollback via
        :meth:`restore_deferred_slot`.
        """
        previous = self._deferred_slots.get(tid, {}).get(attr)
        self._deferred_slots.setdefault(tid, {})[attr] = domain
        return previous

    def undefer_masked_slot(self, tid: Id, attr: str) -> Optional[Id]:
        """Drop (and return) the deferred domain for (tid, attr)."""
        slots = self._deferred_slots.get(tid)
        if not slots:
            return None
        previous = slots.pop(attr, None)
        if not slots:
            del self._deferred_slots[tid]
        return previous

    def restore_deferred_slot(self, tid: Id, attr: str,
                              previous: Optional[Id]) -> None:
        """Reinstate the deferral state captured before a change."""
        if previous is None:
            self.undefer_masked_slot(tid, attr)
        else:
            self._deferred_slots.setdefault(tid, {})[attr] = previous

    def deferred_masked_slots(self, tid: Id) -> Dict[str, Id]:
        """attr -> domain of the masked slots awaiting *tid*'s PhRep."""
        return dict(self._deferred_slots.get(tid, {}))

    # -- attribute access (with fashion masking) ------------------------------------------

    def get_attr(self, obj: GomObject, name: str) -> object:
        """Read an attribute.

        Resolution order: pending lazy migrations (convert-on-touch),
        stored slot value, then registered exception handlers (the
        ENCORE-style masking cure), then fashion masking (cross-version
        substitutability).
        """
        self.migrations.touch(obj)
        if name in obj.slots:
            return obj.slots[name]
        handled, value = self.handlers.read(obj, name,
                                            materializer=self.store_slot)
        if handled:
            return value
        masked = self._fashion_read(obj, name)
        if masked is not _MISSING:
            return masked
        raise UnknownSlotError(
            f"object {obj!r} has no slot {name!r} and no handler or "
            f"fashion masks it")

    def set_attr(self, obj: GomObject, name: str, value: object,
                 check: bool = True) -> None:
        """Write an attribute, redirecting through fashion when masked.

        Writing an attribute the type declares but the object has no
        slot value for yet (a freshly added attribute, mid-conversion)
        creates the slot value — this is how conversion routines fill
        new slots.  The write goes through :meth:`store_slot`, so it
        rolls back with an open session.
        """
        self.migrations.touch(obj)
        domain = self.lookup(_attribute_domains, obj.tid).get(name)
        if domain is not None or name in obj.slots:
            if check and domain is not None:
                self._check_conforms(domain, value, name)
            self.store_slot(obj, name, value)
            return
        if self.handlers.write(obj, name, value):
            return
        if self._fashion_write(obj, name, value):
            return
        raise UnknownSlotError(
            f"object {obj!r} has no slot {name!r} and no handler or "
            f"fashion masks it")

    def _fashion_read(self, obj: GomObject, name: str) -> object:
        codes = self.lookup(fashion_attr_codes, obj.tid, name)
        if codes is None:
            return _MISSING
        read_code, _write_code = codes
        return self.interpreter.run_accessor(read_code, obj, ())

    def _fashion_write(self, obj: GomObject, name: str,
                       value: object) -> bool:
        codes = self.lookup(fashion_attr_codes, obj.tid, name)
        if codes is None:
            return False
        _read_code, write_code = codes
        self.interpreter.run_accessor(write_code, obj, (value,))
        return True

    # -- typing ---------------------------------------------------------------------------------

    def _check_conforms(self, domain: Id, value: object, name: str) -> None:
        if self.conforms(domain, value):
            return
        raise GomTypeError(
            f"value {value!r} does not conform to the domain "
            f"{self.model.type_name(domain) or domain!r} of attribute "
            f"{name!r}")

    def conforms(self, domain: Id, value: object) -> bool:
        """Value conformance, including fashion-extended substitutability."""
        builtin_name, enum_values = self.lookup(_domain_facts, domain)
        if builtin_name is not None:
            return value_conforms(builtin_name, value)
        if enum_values:
            return value in enum_values
        if isinstance(value, Id) and value.kind == "oid":
            if not self.exists(value):
                return False
            return self.lookup(substitutable, self.get(value).tid, domain)
        if isinstance(value, GomObject):
            return self.conforms(domain, value.oid)
        return False

    # -- operation calls -----------------------------------------------------------------------------

    def call(self, obj: GomObject, opname: str,
             args: Sequence[object] = ()) -> object:
        """Invoke an operation with dynamic binding (and fashion fallback)."""
        self.migrations.touch(obj)
        return self.interpreter.call(obj, opname, list(args))


def _attribute_domains(model: GomDatabase, tid: Id) -> Dict[str, Id]:
    """name -> domain of *tid*'s attributes, inherited ones included."""
    return dict(model.attributes(tid, inherited=True))


def _domain_facts(model: GomDatabase,
                  domain: Id) -> Tuple[Optional[str], Tuple[str, ...]]:
    """(built-in sort name or None, enum values) of an attribute domain."""
    name = model.type_name(domain)
    builtin = name if name is not None and isinstance(domain, Id) \
        and domain.is_builtin else None
    return builtin, tuple(model.enum_values(domain))


class _CreatedObjects(list):
    """A list the runtime can reference weakly (see ``_created_in``)."""

    __slots__ = ("__weakref__",)


class _Missing:
    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<missing>"


_MISSING = _Missing()
