"""Stress: the runtime's shared schema memo under concurrent access.

A :class:`BackgroundMigrator` thread drains convert-on-touch debt in its
own sessions and reader threads run masked reads and operation calls,
while the main thread writes (natively and through the fashion), calls,
and commits ``add_slot`` / ``delete_slot`` schema changes that drop the
memo.  A 10 µs switch interval forces preemption inside the lookup and
undo paths.  Every read must match a shadow copy of what was written.
"""

import math
import random
import sys
import threading
import time

from repro.errors import UnknownSlotError
from repro.gom.builtins import builtin_type
from repro.manager import SchemaManager
from repro.runtime.interpreter import CURRENT_YEAR
from repro.workloads.carschema import define_car_schema
from repro.workloads.newcarschema import (
    EVOLUTION_FEATURES,
    evolve_person_schema,
)

READERS = 3
SCHEMA_CHANGES = 12
OPS_PER_CHANGE = 150
MAX_EXTRAS = 2
DEADLINE_S = 60.0
JOIN_TIMEOUT_S = 30.0


def _build(rng):
    manager = SchemaManager(features=EVOLUTION_FEATURES)
    define_car_schema(manager)
    runtime = manager.runtime
    session = manager.begin_session()
    persons = [runtime.create_object(
        "Person", {"name": f"p{i}", "age": rng.randrange(18, 90)},
        session=session) for i in range(120)]
    cities = [runtime.create_object(
        "City", {"longi": rng.uniform(-180, 180),
                 "lati": rng.uniform(-90, 90), "name": f"c{i}",
                 "noOfInhabitants": i}, session=session) for i in range(30)]
    cars = [runtime.create_object(
        "Car", {"owner": rng.choice(persons).oid, "maxspeed": 100.0,
                "milage": float(i), "location": rng.choice(cities).oid},
        session=session) for i in range(150)]
    session.commit()
    evolve_person_schema(manager)
    return manager, persons, cities, cars


def _distance(here, there):
    return math.sqrt((here.slots["longi"] - there.slots["longi"]) ** 2
                     + (here.slots["lati"] - there.slots["lati"]) ** 2)


def _reader(manager, persons, cities, ages, stop, errors, seed):
    """Masked reads of persons no thread writes, and distance calls."""
    runtime, rng = manager.runtime, random.Random(seed)
    try:
        while not stop.is_set():
            person = rng.choice(persons)
            birthday = runtime.get_attr(person, "birthday")
            if birthday != CURRENT_YEAR - ages[person.oid]:
                errors.append(f"reader: birthday {birthday} of {person!r}")
            here, there = rng.choice(cities), rng.choice(cities)
            value = runtime.call(here, "distance", [there.oid])
            if not math.isclose(value, _distance(here, there),
                                rel_tol=1e-12, abs_tol=1e-9):
                errors.append(f"reader: distance {value}")
    except Exception as error:          # reported by the main thread
        errors.append(f"reader raised {error!r}")


def _drainer(migrator, stop, errors):
    try:
        while not stop.is_set():
            if not migrator.run_once():
                time.sleep(0.0005)
    except Exception as error:          # reported by the main thread
        errors.append(f"drainer raised {error!r}")


def _schema_change(manager, car_tid, extras, counter):
    session = manager.begin_session()
    prims = manager.analyzer.primitives(session)
    if len(extras) >= MAX_EXTRAS:
        name, _fill = extras.pop(0)
        prims.delete_attribute(car_tid, name)
        manager.migrations.delete_slot(car_tid, name, session=session)
    name = f"extra{counter}"
    prims.add_attribute(car_tid, name, builtin_type("int"))
    manager.migrations.add_slot(car_tid, name, counter, session=session)
    session.commit()
    extras.append((name, counter))


def test_memo_under_background_drain_and_readers():
    rng = random.Random(7)
    manager, persons, cities, cars = _build(rng)
    runtime = manager.runtime
    car_tid = cars[0].tid
    shared, written = persons[:60], persons[60:]
    ages = {person.oid: person.slots["age"] for person in persons}
    milage = {car.oid: car.slots["milage"] for car in cars}
    extras = []
    errors = []
    stop = threading.Event()
    migrator = manager.migrations.background(batch_size=16)
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    threads = [threading.Thread(target=_drainer,
                                args=(migrator, stop, errors),
                                name="stress-drainer")]
    threads += [threading.Thread(
        target=_reader, args=(manager, shared, cities, ages, stop, errors,
                              seed), name=f"stress-reader-{seed}")
        for seed in range(READERS)]
    deadline = time.monotonic() + DEADLINE_S
    changes = 0
    try:
        for thread in threads:
            thread.start()
        while changes < SCHEMA_CHANGES and not errors \
                and time.monotonic() < deadline:
            for _ in range(OPS_PER_CHANGE):
                person = rng.choice(written)
                age = rng.randrange(18, 90)
                if rng.random() < 0.5:
                    runtime.set_attr(person, "age", age)
                else:
                    runtime.set_attr(person, "birthday", CURRENT_YEAR - age)
                ages[person.oid] = age
                check = rng.choice(written)
                assert runtime.get_attr(check, "birthday") == \
                    CURRENT_YEAR - ages[check.oid]
                assert runtime.get_attr(check, "age") == ages[check.oid]
                car = rng.choice(cars)
                value = float(rng.randrange(0, 10_000))
                runtime.set_attr(car, "milage", value)
                milage[car.oid] = value
                assert runtime.get_attr(car, "milage") == value
                here, there = rng.choice(cities), rng.choice(cities)
                assert math.isclose(
                    runtime.call(here, "distance", [there.oid]),
                    _distance(here, there), rel_tol=1e-12, abs_tol=1e-9)
            changes += 1
            _schema_change(manager, car_tid, extras, changes)
    finally:
        stop.set()
        for thread in threads:
            thread.join(JOIN_TIMEOUT_S)
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert changes == SCHEMA_CHANGES, "the stress loop ran out of time"
    while migrator.run_once():
        pass
    assert manager.migrations.debt() == 0
    assert migrator.converted > 0
    expected_extras = dict(extras)
    base = {"owner", "maxspeed", "milage", "location"}
    for car in cars:
        assert car.slots["milage"] == milage[car.oid]
        assert {name: value for name, value in car.slots.items()
                if name not in base} == expected_extras
    for person in persons:
        assert person.slots["age"] == ages[person.oid]
    dropped = f"extra{SCHEMA_CHANGES - MAX_EXTRAS}"
    try:
        runtime.get_attr(cars[0], dropped)
    except UnknownSlotError:
        pass
    else:
        raise AssertionError(f"{dropped} survived its delete_slot")
    assert manager.check().consistent
