"""Opaque identifiers for schema and object-base entities.

The paper's tables use identifiers like ``tid_1``, ``did_3``, ``clid_4``,
and well-known identifiers for built-in sorts (``tid_string``,
``clid_float``).  :class:`Id` reproduces this: an id has a *kind* prefix
(``sid`` schema, ``tid`` type, ``did`` declaration, ``cid`` code,
``clid`` physical representation, ``oid`` object) and either a number or
a symbolic name (for built-ins and the root type ``ANY``).

Ids are immutable, hashable, and ordered (numbered ids sort before named
ones of the same kind) so extensions render deterministically.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

KINDS = ("sid", "tid", "did", "cid", "clid", "oid")


@dataclass(frozen=True, slots=True)
class Id:
    """An opaque identifier such as ``tid_1`` or ``tid_string``."""

    kind: str
    number: Optional[int] = None
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown id kind {self.kind!r}")
        if (self.number is None) == (self.label is None):
            raise ValueError("an Id has exactly one of number / label")

    @property
    def is_builtin(self) -> bool:
        """Named ids denote built-in sorts or the well-known root type."""
        return self.label is not None

    def _sort_key(self) -> Tuple:
        if self.number is not None:
            return (self.kind, 0, self.number, "")
        return (self.kind, 1, 0, self.label)

    def __lt__(self, other: "Id") -> bool:
        if not isinstance(other, Id):
            return NotImplemented
        return self._sort_key() < other._sort_key()

    def __repr__(self) -> str:
        if self.number is not None:
            return f"{self.kind}_{self.number}"
        return f"{self.kind}_{self.label}"


class IdFactory:
    """Per-kind counters handing out fresh numbered identifiers.

    One factory per :class:`~repro.gom.model.GomDatabase`, so the paper's
    numbering (``tid_1`` = Person, … ``tid_4`` = Car) is reproduced when
    definitions are processed in source order.
    """

    def __init__(self) -> None:
        #: The next number of every kind; guarded by ``_lock`` so
        #: concurrent callers never receive the same identifier.
        self._next: Dict[str, int] = {kind: 1 for kind in KINDS}
        self._lock = threading.Lock()

    def fresh(self, kind: str) -> Id:
        """Return the next identifier of the given kind."""
        if kind not in self._next:
            raise ValueError(f"unknown id kind {kind!r}")
        with self._lock:
            number = self._next[kind]
            self._next[kind] = number + 1
        return Id(kind, number=number)

    def schema(self) -> Id:
        return self.fresh("sid")

    def type(self) -> Id:
        return self.fresh("tid")

    def decl(self) -> Id:
        return self.fresh("did")

    def code(self) -> Id:
        return self.fresh("cid")

    def phrep(self) -> Id:
        return self.fresh("clid")

    def object(self) -> Id:
        return self.fresh("oid")

    # -- persistence support ---------------------------------------------------

    def next_numbers(self) -> Dict[str, int]:
        """Peek the next number of every kind without consuming any.

        Used by the persistence layer and the evolution log, whose
        commit records carry the counter frontier so evolution resumes
        seamlessly after a reload or a crash recovery.
        """
        with self._lock:
            return dict(self._next)

    def resume(self, kind: str, next_number: int) -> None:
        """Restart a kind's counter so :meth:`fresh` yields *next_number*.

        Counters only move forward: resuming below the current frontier
        is ignored, so replaying several commit records in log order
        never reuses an identifier.
        """
        if kind not in self._next:
            raise ValueError(f"unknown id kind {kind!r}")
        with self._lock:
            self._next[kind] = max(self._next[kind], next_number)


def builtin_type_id(name: str) -> Id:
    """The well-known type id of a built-in sort, e.g. ``tid_string``."""
    return Id("tid", label=name)


def builtin_phrep_id(name: str) -> Id:
    """The well-known physical representation id of a built-in sort."""
    return Id("clid", label=name)


#: The unique root of the subtype hierarchy required by GOM.
ANY_TYPE = Id("tid", label="ANY")
