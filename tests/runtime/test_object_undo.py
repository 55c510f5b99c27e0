"""Object-base writes roll back with the session that made them.

* ``set_attr`` inside an open session — native, fashion-masked, and from
  a method body — is undone by the session's rollback.
* Objects created in one session are undone by one undo entry per
  session; rollback restores the store and the per-type instance index
  however creations and deletions interleave, and the runtime keeps no
  reference to a session once it has ended.
"""

import gc
import weakref

import pytest

from repro.manager import SchemaManager
from repro.workloads.carschema import define_car_schema
from repro.workloads.newcarschema import (
    EVOLUTION_FEATURES,
    evolve_person_schema,
)


@pytest.fixture
def world():
    manager = SchemaManager(features=EVOLUTION_FEATURES)
    define_car_schema(manager)
    runtime = manager.runtime
    person = runtime.create_object("Person", {"name": "Ada", "age": 38})
    here = runtime.create_object(
        "City", {"longi": 0.0, "lati": 0.0, "name": "Here",
                 "noOfInhabitants": 1})
    there = runtime.create_object(
        "City", {"longi": 3.0, "lati": 4.0, "name": "There",
                 "noOfInhabitants": 2})
    car = runtime.create_object(
        "Car", {"owner": person.oid, "maxspeed": 120.0, "milage": 100.0,
                "location": here.oid})
    evolve_person_schema(manager)
    return manager, person, car, there


class TestSetAttrRollsBack:
    def test_native_write(self, world):
        manager, person, _car, _there = world
        session = manager.begin_session()
        manager.runtime.set_attr(person, "age", 50)
        assert person.slots["age"] == 50
        session.rollback()
        assert person.slots["age"] == 38

    def test_fashion_masked_write(self, world):
        manager, person, _car, _there = world
        session = manager.begin_session()
        manager.runtime.set_attr(person, "birthday", 1900)
        assert person.slots["age"] == 93
        session.rollback()
        assert person.slots["age"] == 38
        assert manager.runtime.get_attr(person, "birthday") == 1955

    def test_method_body_write(self, world):
        manager, person, car, there = world
        location = car.slots["location"]
        session = manager.begin_session()
        milage = manager.runtime.call(car, "changeLocation",
                                      [person.oid, there.oid])
        assert milage == 105.0
        assert car.slots["location"] == there.oid
        session.rollback()
        assert car.slots["milage"] == 100.0
        assert car.slots["location"] == location

    def test_write_outside_a_session_stays(self, world):
        manager, person, _car, _there = world
        manager.runtime.set_attr(person, "age", 50)
        assert person.slots["age"] == 50


def _store_state(runtime):
    return (dict(runtime._objects),
            {tid: set(oids)
             for tid, oids in runtime._instances_by_type.items()})


class TestCreationRollsBack:
    def _person(self, runtime, session, name):
        return runtime.create_object("Person@CarSchema",
                                     {"name": name, "age": 20},
                                     session=session)

    def test_create_only(self, world):
        manager, *_ = world
        runtime = manager.runtime
        before = _store_state(runtime)
        session = manager.begin_session()
        created = [self._person(runtime, session, f"p{i}")
                   for i in range(50)]
        runtime.create_object(
            "City", {"longi": 1.0, "lati": 1.0, "name": "New",
                     "noOfInhabitants": 3}, session=session)
        assert runtime.count_objects() == len(before[0]) + 51
        session.rollback()
        assert _store_state(runtime) == before
        assert not any(runtime.exists(obj.oid) for obj in created)

    def test_create_then_delete(self, world):
        manager, *_ = world
        runtime = manager.runtime
        before = _store_state(runtime)
        session = manager.begin_session()
        first = self._person(runtime, session, "first")
        self._person(runtime, session, "second")
        runtime.delete_object(first.oid, session=session)
        self._person(runtime, session, "third")
        session.rollback()
        assert _store_state(runtime) == before

    def test_delete_then_create(self, world):
        manager, person, *_ = world
        runtime = manager.runtime
        before = _store_state(runtime)
        session = manager.begin_session()
        runtime.delete_object(person.oid, session=session)
        self._person(runtime, session, "replacement")
        session.rollback()
        assert _store_state(runtime) == before
        assert runtime.get(person.oid) is person

    def test_last_instance_of_a_new_type(self, world):
        """Deleting every instance a session created removes the type's
        entry; rollback must not leave it behind either."""
        manager, *_ = world
        runtime = manager.runtime
        manager.define("schema Extra is type Gadget is [ n : int; ] "
                       "end type Gadget; end schema Extra;")
        before = _store_state(runtime)
        session = manager.begin_session()
        gadget = runtime.create_object("Gadget", {"n": 1}, session=session)
        runtime.delete_object(gadget.oid, session=session)
        runtime.create_object("Gadget", {"n": 2}, session=session)
        session.rollback()
        assert _store_state(runtime) == before

    def test_committed_session_is_not_retained(self, world):
        manager, *_ = world
        runtime = manager.runtime
        session = manager.begin_session()
        created = [self._person(runtime, session, f"p{i}")
                   for i in range(10)]
        session.commit()
        assert all(runtime.exists(obj.oid) for obj in created)
        ref = weakref.ref(session)
        del session
        gc.collect()
        assert ref() is None
        # A later session starts its own undo list.
        session = manager.begin_session()
        late = self._person(runtime, session, "late")
        session.rollback()
        assert not runtime.exists(late.oid)
        assert all(runtime.exists(obj.oid) for obj in created)
