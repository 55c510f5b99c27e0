"""The runtime's schema-answer memo follows every schema change.

:meth:`RuntimeSystem.lookup` memoizes attribute domains, fashion codes,
operation bindings and domain facts for one EDB generation and rule set.
Each test warms the memo, changes the schema one way, and requires every
runtime answer — masked and unmasked reads, the ``set_attr`` conformance
outcome, dispatch including ``super`` and fashion calls — to equal the
answer the same call gives when every lookup goes straight to the
uncached helpers of :mod:`repro.gom.model` / :mod:`repro.runtime.masking`.
"""

import pytest

from repro.datalog.terms import Atom
from repro.gom import model as gom_model
from repro.gom.builtins import builtin_type
from repro.manager import SchemaManager
from repro.workloads.carschema import define_car_schema
from repro.workloads.newcarschema import (
    EVOLUTION_FEATURES,
    evolve_person_schema,
)

#: A value no attribute domain accepts.
BAD = ("not", "a", "value")

#: (object key, attribute) pairs read and written by every probe.
ATTR_PROBES = [
    ("person", "age"), ("person", "years"), ("person", "birthday"),
    ("person", "name"), ("person", "nick"), ("person", "shoe"),
    ("city", "longi"), ("city", "alt"), ("city", "name"),
    ("car", "maxspeed"), ("car", "milage"), ("car", "longi"),
]


@pytest.fixture
def world():
    manager = SchemaManager(features=EVOLUTION_FEATURES)
    define_car_schema(manager)
    runtime = manager.runtime
    session = manager.begin_session()
    person = runtime.create_object("Person", {"name": "Ada", "age": 38},
                                   session=session)
    driver = runtime.create_object("Person", {"name": "Bo", "age": 50},
                                   session=session)
    city = runtime.create_object(
        "City", {"longi": 1.0, "lati": 2.0, "name": "Here",
                 "noOfInhabitants": 10}, session=session)
    other = runtime.create_object(
        "City", {"longi": 4.0, "lati": 6.0, "name": "There",
                 "noOfInhabitants": 20}, session=session)
    car = runtime.create_object(
        "Car", {"owner": person.oid, "maxspeed": 180.0, "milage": 10.0,
                "location": city.oid}, session=session)
    session.commit()
    evolve_person_schema(manager)
    model = manager.model
    new_person = model.type_id("Person",
                               model.schema_id("NewPersonSchema"))
    location = model.type_id("Location")
    session = manager.begin_session()
    prims = manager.analyzer.primitives(session)
    greeting = prims.add_operation(new_person, "greeting", (),
                                   builtin_type("string"),
                                   code_text='greeting() is return "hi";')
    prims.add_fashion_decl(greeting, person.tid,
                           'greeting() is return "old hi";')
    prims.add_operation(location, "describe", (), builtin_type("string"),
                        code_text='describe() is return "location";')
    session.commit()
    objects = {"person": person, "driver": driver, "city": city,
               "other": other, "car": car}
    return manager, objects


def _outcome(action):
    try:
        return ("ok", action())
    except Exception as error:          # the error class is the answer
        return ("raise", type(error).__name__)


def _answers(manager, objects):
    """Every probed runtime answer, in a fixed order."""
    runtime = manager.runtime
    person, driver, city, other, car = (
        objects[key] for key in ("person", "driver", "city", "other", "car"))
    answers = []
    for key, attr in ATTR_PROBES:
        obj = objects[key]
        answers.append(("get", key, attr,
                        _outcome(lambda: runtime.get_attr(obj, attr))))
        # A write the schema does not reject is undone at once, so the
        # reference round sees the state the memo round saw.
        saved = dict(obj.slots)
        try:
            answers.append(("set", key, attr, _outcome(
                lambda: runtime.set_attr(obj, attr, BAD))))
        finally:
            obj.slots.clear()
            obj.slots.update(saved)
    calls = [
        ("city.distance", lambda: runtime.call(city, "distance",
                                               [other.oid])),
        ("city.describe", lambda: runtime.call(city, "describe")),
        ("car.distance", lambda: runtime.call(car, "distance", [city.oid])),
        ("car.changeLocation", lambda: runtime.call(
            car, "changeLocation", [driver.oid, other.oid])),
        ("person.greeting", lambda: runtime.call(person, "greeting")),
        ("person.farewell", lambda: runtime.call(person, "farewell")),
    ]
    for name, action in calls:
        answers.append(("call", name, _outcome(action)))
    return answers


def _uncached_answers(manager, objects, monkeypatch):
    runtime = manager.runtime
    with monkeypatch.context() as patch:
        patch.setattr(runtime, "lookup",
                      lambda compute, *args: compute(runtime.model, *args))
        return _answers(manager, objects)


def _assert_fresh(manager, objects, monkeypatch):
    memoized = _answers(manager, objects)
    assert memoized == _uncached_answers(manager, objects, monkeypatch)
    # The round just run warmed the memo: the next one reads from it.
    assert _answers(manager, objects) == memoized
    return memoized


def _ids(manager, objects):
    model = manager.model
    return {
        "person": objects["person"].tid,
        "new_person": model.type_id(
            "Person", model.schema_id("NewPersonSchema")),
        "location": model.type_id("Location"),
        "city": objects["city"].tid,
        "car": objects["car"].tid,
        "int": builtin_type("int"),
        "float": builtin_type("float"),
        "string": builtin_type("string"),
    }


def _one(model, pattern):
    return next(iter(model.db.matching(pattern)))


# -- changes made by primitives inside a session ----------------------------------------


def add_attribute_on_type(prims, model, ids):
    prims.add_attribute(ids["person"], "shoe", ids["int"])


def add_attribute_on_supertype(prims, model, ids):
    prims.add_attribute(ids["location"], "alt", ids["float"])


def delete_attribute_on_type(prims, model, ids):
    prims.delete_attribute(ids["car"], "maxspeed")


def delete_attribute_on_supertype(prims, model, ids):
    prims.delete_attribute(ids["location"], "longi")


def rename_attribute_on_type(prims, model, ids):
    prims.rename_attribute(ids["person"], "age", "years")


def rename_attribute_on_supertype(prims, model, ids):
    prims.rename_attribute(ids["location"], "longi", "alt")


def remove_fashion_type(prims, model, ids):
    prims.session.remove(Atom("FashionType", (ids["person"],
                                              ids["new_person"])))


def add_fashion_type(prims, model, ids):
    prims.add_fashion_type(ids["car"], ids["location"])
    prims.add_fashion_attr(ids["location"], "longi", ids["car"],
                           "longi() is self.milage",
                           "longi(v) is self.milage := v;")


def remove_fashion_attr(prims, model, ids):
    prims.session.remove(_one(model, Atom(
        "FashionAttr", (None, "birthday", ids["person"], None, None))))


def add_fashion_attr(prims, model, ids):
    prims.add_fashion_attr(ids["new_person"], "shoe", ids["person"],
                           "shoe() is 42", "shoe(v) is self.age := v;")


def remove_fashion_decl(prims, model, ids):
    prims.session.remove(_one(model, Atom(
        "FashionDecl", (None, ids["person"], None))))


def add_fashion_decl(prims, model, ids):
    farewell = prims.add_operation(ids["new_person"], "farewell", (),
                                   ids["string"],
                                   code_text='farewell() is return "bye";')
    prims.add_fashion_decl(farewell, ids["person"],
                           'farewell() is return "old bye";')


def refine_operation(prims, model, ids):
    refined = model.decl_id(ids["location"], "describe")
    prims.add_operation(ids["city"], "describe", (), ids["string"],
                        code_text='describe() is return "city";',
                        refines=refined)


def change_super_code(prims, model, ids):
    prims.set_code(model.decl_id(ids["location"], "distance",
                                 inherited=False),
                   "distance(other) is return 0.5;")


def add_subtype_edge(prims, model, ids):
    prims.add_supertype(ids["car"], ids["location"])


SESSION_CHANGES = [
    add_attribute_on_type, add_attribute_on_supertype,
    delete_attribute_on_type, delete_attribute_on_supertype,
    rename_attribute_on_type, rename_attribute_on_supertype,
    remove_fashion_type, add_fashion_type,
    remove_fashion_attr, add_fashion_attr,
    remove_fashion_decl, add_fashion_decl,
    refine_operation, change_super_code, add_subtype_edge,
]


@pytest.mark.parametrize("change", SESSION_CHANGES,
                         ids=[change.__name__ for change in SESSION_CHANGES])
def test_session_change_and_rollback(world, monkeypatch, change):
    manager, objects = world
    before = _assert_fresh(manager, objects, monkeypatch)
    session = manager.begin_session()
    change(manager.analyzer.primitives(session), manager.model,
           _ids(manager, objects))
    during = _assert_fresh(manager, objects, monkeypatch)
    assert during != before, "the change must alter some runtime answer"
    session.rollback()
    assert _assert_fresh(manager, objects, monkeypatch) == before


def test_committed_change(world, monkeypatch):
    manager, objects = world
    _assert_fresh(manager, objects, monkeypatch)
    ids = _ids(manager, objects)
    session = manager.begin_session()
    add_attribute_on_supertype(manager.analyzer.primitives(session),
                               manager.model, ids)
    manager.migrations.add_slot(ids["location"], "alt", 0.0,
                                session=session)
    session.commit()
    answers = _assert_fresh(manager, objects, monkeypatch)
    assert ("set", "city", "alt", ("raise", "GomTypeError")) in answers


def test_direct_modify_bypassing_the_session(world, monkeypatch):
    manager, objects = world
    ids = _ids(manager, objects)
    before = _assert_fresh(manager, objects, monkeypatch)
    manager.model.modify(
        additions=[Atom("Attr", (ids["person"], "shoe", ids["int"]))],
        deletions=[Atom("FashionType", (ids["person"], ids["new_person"]))])
    after = _assert_fresh(manager, objects, monkeypatch)
    assert ("set", "person", "shoe", ("raise", "GomTypeError")) in after
    assert ("get", "person", "birthday",
            ("raise", "UnknownSlotError")) in after
    assert after != before


def test_installing_a_feature(world, monkeypatch):
    """A feature adds rules without touching the EDB; its derived
    attributes must show at once."""
    manager, objects = world
    feature = gom_model.FeatureModule(
        name="test_nickname_alias",
        rules_text='Attr_i(T, "nick", D) :- Attr(T, "name", D).',
        requires=("core",))
    monkeypatch.setitem(gom_model._REGISTRY, feature.name, feature)
    before = _assert_fresh(manager, objects, monkeypatch)
    assert ("set", "person", "nick", ("raise", "UnknownSlotError")) \
        in before
    manager.model.enable(feature.name)
    after = _assert_fresh(manager, objects, monkeypatch)
    assert ("set", "person", "nick", ("raise", "GomTypeError")) in after


def test_warm_masked_reads_do_no_index_lookups(world):
    manager, objects = world
    runtime, person = manager.runtime, objects["person"]
    expected = runtime.get_attr(person, "birthday")
    stats = manager.model.db.stats
    lookups = stats.index_lookups
    for _ in range(100):
        assert runtime.get_attr(person, "birthday") == expected
    assert stats.index_lookups == lookups
