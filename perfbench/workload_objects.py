"""The ``objects`` workload: object access, masking and online migration.

An in-memory manager with the versioning and fashion features holds the
CarSchema plus the §4.1 Person fashion and tens of thousands of
instances.  One thread runs a closed loop over skewed object picks (a
hot set and a cold tail): native get and set, operation calls
(``City.distance`` with its ``super`` call), and masked get and set of
``birthday`` through the fashion.  Every few thousand operations one
schema-change session adds an attribute to ``Car`` through
``migrations.add_slot`` (and, once two are alive, deletes the oldest
through ``delete_slot``) and commits directly (one EES check); small ``BackgroundMigrator.run_once`` batches interleave on the
same thread, and stale cars also convert on touch.

Checks: every read returns the value a shadow copy of the written slots
predicts (masked ``birthday`` agrees with ``age``; distances agree with
a recomputation); after the window a final drain leaves no debt, and
every written slot and every migrated ``Car`` slot matches the shadow.
"""

from __future__ import annotations

import math
import random
import time
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.gom.builtins import builtin_type
from repro.manager import SchemaManager
from repro.runtime.interpreter import CURRENT_YEAR
from repro.workloads.carschema import define_car_schema
from repro.workloads.newcarschema import (EVOLUTION_FEATURES,
                                          evolve_person_schema)

from harness import HostSpeed, Window

PERSONS = 16_000
CITIES = 3_000
CARS = 2_000
HOT_SHARE = 0.02                # of each population
HOT_PROBABILITY = 0.8           # of picks that go to the hot set
#: Operation kinds and their weights in the mix.  Native gets are the
#: fastest quarter and masked gets the next half, so the median op sits
#: inside one population, not on the edge between two.
MIX = (("get", 25), ("get_masked", 50), ("set", 8), ("set_masked", 8),
       ("call", 9))
CHANGE_EVERY = 4_000            # object ops between schema-change sessions
DRAIN_EVERY = 1_000             # object ops between background batches
DRAIN_BATCH = 600
SPEED_EVERY = 64                # object ops between host-speed polls
MAX_EXTRAS = 2                  # added Car attributes alive at once
WARMUP_OPS = 6_000
_FAILED = object()
CONFIG = {"persons": PERSONS, "cities": CITIES, "cars": CARS,
          "hot_share": HOT_SHARE, "hot_probability": HOT_PROBABILITY,
          "mix": dict(MIX), "change_every_ops": CHANGE_EVERY,
          "drain_every_ops": DRAIN_EVERY, "drain_batch": DRAIN_BATCH,
          "loop": "closed, 1 client", "storage": "in memory"}


@dataclass
class Population:
    objects: list
    hot: int

    def pick(self, rng: random.Random):
        if rng.random() < HOT_PROBABILITY:
            return self.objects[rng.randrange(self.hot)]
        return self.objects[rng.randrange(len(self.objects))]


@dataclass
class ObjectsWorld:
    manager: SchemaManager
    rng: random.Random
    persons: Population
    cities: Population
    cars: Population
    car_tid: object
    #: Shadow copies: oid -> value of every slot the workload writes.
    age: Dict[object, int] = field(default_factory=dict)
    milage: Dict[object, float] = field(default_factory=dict)
    #: Car attributes added by schema-change sessions, with their fill.
    extras: List[Tuple[str, int]] = field(default_factory=list)
    migrator: object = None
    counter: int = 0
    #: Ops run since set-up began (drives the change / drain schedule).
    ops: int = 0
    #: Ops run and checked since the warm-up ended.
    checked_ops: int = 0
    op_failures: int = 0
    sessions_ok: List[bool] = field(default_factory=list)
    checks: Dict[str, bool] = field(default_factory=dict)
    debt_samples: List[int] = field(default_factory=list)


def setup(seed: int, workdir: str) -> ObjectsWorld:
    rng = random.Random(seed * 7919 + 3)
    manager = SchemaManager(features=EVOLUTION_FEATURES)
    define_car_schema(manager)
    runtime = manager.runtime
    session = manager.begin_session()
    persons = [runtime.create_object(
        "Person", {"name": f"p{index}", "age": rng.randrange(18, 90)},
        session=session) for index in range(PERSONS)]
    cities = [runtime.create_object(
        "City", {"longi": rng.uniform(-180, 180), "lati": rng.uniform(-90, 90),
                 "name": f"c{index}", "noOfInhabitants": index},
        session=session) for index in range(CITIES)]
    cars = [runtime.create_object(
        "Car", {"owner": rng.choice(persons).oid,
                "maxspeed": float(rng.randrange(90, 250)),
                "milage": float(rng.randrange(0, 200_000)),
                "location": rng.choice(cities).oid},
        session=session) for _ in range(CARS)]
    session.commit()
    evolve_person_schema(manager)
    for population in (persons, cities, cars):
        rng.shuffle(population)
    world = ObjectsWorld(
        manager=manager, rng=rng,
        persons=Population(persons, max(1, int(PERSONS * HOT_SHARE))),
        cities=Population(cities, max(1, int(CITIES * HOT_SHARE))),
        cars=Population(cars, max(1, int(CARS * HOT_SHARE))),
        car_tid=manager.model.type_id("Car"),
        age={person.oid: person.slots["age"] for person in persons},
        milage={car.oid: car.slots["milage"] for car in cars},
        migrator=manager.migrations.background(batch_size=DRAIN_BATCH))
    # Warm-up: every op kind, a schema change and a drain.
    run_ops(world, ops=WARMUP_OPS, log=None, timings=None)
    world.checked_ops = world.op_failures = 0
    world.sessions_ok.clear()
    return world


def _operation(world: ObjectsWorld, kind: str):
    """(call, check) for one op; *check* validates the call's result."""
    runtime, rng = world.manager.runtime, world.rng
    if kind == "call":
        here, there = world.cities.pick(rng), world.cities.pick(rng)
        expected = math.sqrt(
            (here.slots["longi"] - there.slots["longi"]) ** 2
            + (here.slots["lati"] - there.slots["lati"]) ** 2)
        return (lambda: runtime.call(here, "distance", [there.oid]),
                lambda value: math.isclose(value, expected, rel_tol=1e-12,
                                           abs_tol=1e-9))
    if kind in ("get", "set") and rng.random() < 1 / 3:
        car = world.cars.pick(rng)
        if kind == "get":
            expected = world.milage[car.oid]
            return (lambda: runtime.get_attr(car, "milage"),
                    lambda value: value == expected)
        value = float(rng.randrange(0, 200_000))
        world.milage[car.oid] = value
        return (lambda: runtime.set_attr(car, "milage", value), None)
    person = world.persons.pick(rng)
    if kind == "get":
        expected = world.age[person.oid]
        return (lambda: runtime.get_attr(person, "age"),
                lambda value: value == expected)
    if kind == "get_masked":
        expected = CURRENT_YEAR - world.age[person.oid]
        return (lambda: runtime.get_attr(person, "birthday"),
                lambda value: value == expected)
    age = rng.randrange(18, 90)
    world.age[person.oid] = age
    if kind == "set":
        return (lambda: runtime.set_attr(person, "age", age), None)
    return (lambda: runtime.set_attr(person, "birthday", CURRENT_YEAR - age),
            None)


def _schema_change(world: ObjectsWorld) -> None:
    """Add a Car attribute (lazily filled) and, once :data:`MAX_EXTRAS`
    are alive, delete the oldest in the same session — so every session
    after the first few does the same work."""
    manager = world.manager
    session = manager.begin_session()
    prims = manager.analyzer.primitives(session)
    try:
        if len(world.extras) >= MAX_EXTRAS:
            name, _fill = world.extras.pop(0)
            prims.delete_attribute(world.car_tid, name)
            manager.migrations.delete_slot(world.car_tid, name,
                                           session=session)
        world.counter += 1
        name, fill = f"extra{world.counter}", world.counter
        prims.add_attribute(world.car_tid, name, builtin_type("int"))
        manager.migrations.add_slot(world.car_tid, name, fill,
                                    session=session)
        world.extras.append((name, fill))
        session.commit()
        world.sessions_ok.append(True)
    except Exception:                       # a failed session is counted
        if session.active:
            session.rollback()
        world.sessions_ok.append(False)


def run_ops(world: ObjectsWorld, seconds: float = None, ops: int = None,
            log=None, timings: Tuple[list, list, list, list] = None,
            speed: HostSpeed = None) -> None:
    """The closed loop; appends to *timings* each op's ms and end time
    and each schema-change session's ms and end time, and samples
    *speed* between ops; *seconds* are at its reference speed."""
    clock = time.perf_counter
    kinds = [kind for kind, _weight in MIX]
    weights = [weight for _kind, weight in MIX]
    rng = world.rng
    done = 0
    while (ops is None or done < ops) and \
            (seconds is None or done % SPEED_EVERY
             or speed.within(seconds)):
        if speed is not None and done % SPEED_EVERY == 0:
            speed.poll()
        kind = rng.choices(kinds, weights)[0]
        call, check = _operation(world, kind)
        handle = log.open() if log is not None else None
        started = clock()
        try:
            value = call()
        except Exception:                   # a failed op is counted
            value = _FAILED
        ended = clock()
        if log is not None:
            log.close(handle, "op.object")
        if value is _FAILED or (check is not None and not check(value)):
            world.op_failures += 1
        if timings is not None:
            timings[0].append((ended - started) * 1000.0)
            timings[1].append(ended)
        done += 1
        world.ops += 1
        world.checked_ops += 1
        if world.ops % CHANGE_EVERY == 0:
            handle = log.open() if log is not None else None
            started = clock()
            _schema_change(world)
            ended = clock()
            if log is not None:
                log.close(handle, "op.schema_change")
                world.debt_samples.append(world.manager.migrations.debt())
            if timings is not None:
                timings[2].append((ended - started) * 1000.0)
                timings[3].append(ended)
        elif world.ops % DRAIN_EVERY == 0:
            handle = log.open() if log is not None else None
            world.migrator.run_once()
            if log is not None:
                log.close(handle, "op.drain")


def run(world: ObjectsWorld, seconds: float, log=None) -> Window:
    # Arrays, not lists: a window records hundreds of thousands of ops.
    op_ms, op_end = array("d"), array("d")
    session_ms: List[float] = []
    session_end: List[float] = []
    speed = HostSpeed()
    started = time.perf_counter()
    run_ops(world, seconds=seconds, log=log,
            timings=(op_ms, op_end, session_ms, session_end), speed=speed)
    wall = time.perf_counter() - started
    speed.sample()
    return Window(started=started, seconds=wall, op_ms=op_ms, op_end=op_end,
                  session_ms=session_ms, session_end=session_end,
                  speed=speed)


def verify(world: ObjectsWorld) -> None:
    manager, runtime = world.manager, world.manager.runtime
    while world.migrator.run_once():
        pass
    world.checks["debt_zero_after_drain"] = manager.migrations.debt() == 0
    world.checks["ages_match_shadow"] = all(
        person.slots.get("age") == world.age[person.oid]
        for person in world.persons.objects)
    world.checks["birthday_agrees_with_age"] = all(
        runtime.get_attr(person, "birthday") == CURRENT_YEAR - world.age[
            person.oid]
        for person in world.persons.objects[::8])
    extras = dict(world.extras)
    base_attrs = {"owner", "maxspeed", "milage", "location"}
    world.checks["cars_match_shadow"] = all(
        car.slots.get("milage") == world.milage[car.oid]
        and {name: value for name, value in car.slots.items()
             if name not in base_attrs} == extras
        for car in world.cars.objects)
    world.checks["full_check_consistent"] = manager.check().consistent


def tally(world: ObjectsWorld):
    attempted = world.checked_ops + len(world.sessions_ok) + len(world.checks)
    failed = (world.op_failures + world.sessions_ok.count(False)
              + sum(1 for ok in world.checks.values() if not ok))
    return attempted, failed


def close(world: ObjectsWorld) -> None:
    world.manager = None
