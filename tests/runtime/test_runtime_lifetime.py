"""A dropped manager frees its object base by reference counting.

The runtime's interpreter, explainer and migration engine point back at
it weakly, so no reference cycle keeps the runtime — and every stored
object with it — alive until the next full collection.
"""

import gc
import weakref

import pytest

from repro.manager import SchemaManager
from repro.runtime.objects import GomObject

SOURCE = """
schema Library is
type Book is
  [ title : string;  pages : int; ]
operations
  declare isLong : -> bool;
implementation
  define isLong() is begin return self.pages > 300; end define;
end type Book;
end schema Library;
"""


def _live_books(oid):
    # GomObject has __slots__ and no weakref slot; find it among the
    # collector-tracked objects instead (gc.get_objects never collects).
    return [obj for obj in gc.get_objects()
            if type(obj) is GomObject and obj.oid == oid]


@pytest.fixture
def gc_off():
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def test_dropped_manager_frees_runtime_and_objects(gc_off):
    manager = SchemaManager()
    manager.define(SOURCE)
    book = manager.runtime.create_object("Book",
                                         {"title": "S", "pages": 412})
    assert manager.runtime.call(book, "isLong") is True
    session = manager.begin_session()
    session.commit()
    oid = book.oid
    runtime = weakref.ref(manager.runtime)
    model = weakref.ref(manager.model)
    assert len(_live_books(oid)) == 1
    del book, session, manager
    assert runtime() is None
    assert model() is None
    assert _live_books(oid) == []


def test_runtime_parts_still_reach_the_runtime():
    manager = SchemaManager()
    manager.define(SOURCE)
    runtime = manager.runtime
    assert runtime.interpreter.runtime.model is manager.model
    assert runtime.migrations.runtime.model is manager.model
    book = runtime.create_object("Book", {"title": "S", "pages": 12})
    assert runtime.call(book, "isLong") is False
