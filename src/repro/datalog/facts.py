"""The indexed, interned, columnar EDB fact store.

The *Schema Base* and the *Object Base Model* of the paper are extensions
of base predicates.  :class:`FactStore` keeps one :class:`Relation` per
declared predicate.  Constants are interned to small integers by a shared
:class:`~repro.datalog.symbols.SymbolTable` at this boundary; a relation
stores its rows **columnar** — one ``array('q')`` of codes per argument
position — with per-column ``{code: row-id set}`` hash indexes, so the
pattern lookups and compiled join closures driving the evaluation engine
work on integer equality and never allocate per-row tuples on interior
steps.

The public surface is unchanged and value-typed: :meth:`Relation.add`,
:meth:`Relation.lookup`, :meth:`Relation.rows` and the
:class:`FactStore` fact API accept and yield original Python values;
codes appear only below this line (and in the compiled executor, which
is part of the same engine).

Predicates are declared with a :class:`PredicateDecl` giving arity,
argument names, key positions, and (optionally) referential-integrity
targets — the GOM layer generates key and reference constraints from
these declarations, mirroring the paper's remark that key and
referential-integrity constraints "always have the same pattern".
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import (
    ArityError,
    DuplicatePredicateError,
    NotGroundError,
    UnknownPredicateError,
)
from repro.datalog.plan import EngineStats
from repro.datalog.symbols import MISSING, SymbolTable
from repro.datalog.terms import Atom, Variable


@dataclass(frozen=True)
class PredicateDecl:
    """Declaration of a base or derived predicate.

    ``key`` lists the argument positions forming the primary key (empty
    means the whole tuple is the key).  ``references`` maps an argument
    position to ``(predicate, position)`` it must reference, providing the
    raw material for auto-generated referential-integrity constraints.
    """

    name: str
    argnames: Tuple[str, ...]
    key: Tuple[int, ...] = ()
    references: Tuple[Tuple[int, str, int], ...] = ()
    derived: bool = False
    doc: str = ""

    @property
    def arity(self) -> int:
        return len(self.argnames)

    def __post_init__(self) -> None:
        for position in self.key:
            if not 0 <= position < self.arity:
                raise ValueError(
                    f"key position {position} out of range for {self.name}/{self.arity}"
                )
        for position, target, target_pos in self.references:
            if not 0 <= position < self.arity:
                raise ValueError(
                    f"reference position {position} out of range for "
                    f"{self.name}/{self.arity}"
                )


class Relation:
    """The extension of one predicate: interned columns + hash indexes.

    Storage is row-id addressed: ``_columns[p][rid]`` is the code of row
    *rid* at position *p*, ``_row_ids`` maps each live row's code tuple
    to its rid (membership and dedup), and ``_indexes[p]`` maps a code
    to the set of rids carrying it at position *p*.  Deleted rids go on
    a free list and are reused, so columns never need compaction.

    ``stats`` points at the owning store's :class:`EngineStats` so index
    usage is attributed to the active evaluation context (session).

    Relations support copy-on-write sharing for snapshot isolation:
    :meth:`freeze_view` hands out a view sharing this relation's columns
    and indexes by reference, marking both sides shared.  The first
    mutation of the live relation after a freeze privatizes the
    containers only (:meth:`_ensure_private`: the columns, the row-id
    dict and a shallow copy of each index dict), so the index *buckets*
    stay shared.  ``_owned[p]`` records the codes whose position-*p*
    bucket the live side has copied or created since the last freeze;
    :meth:`add_codes` / :meth:`remove_codes` copy a bucket the first
    time they change it, so a publish-then-mutate cycle costs the
    touched buckets, never the whole relation.  ``_owned`` is None while
    every bucket is private (never frozen, or cleared since).  The
    symbol table is append-only and shared by reference — codes recorded
    before a freeze decode identically forever, on both sides.
    """

    def __init__(self, decl: PredicateDecl,
                 stats: Optional[EngineStats] = None,
                 symbols: Optional[SymbolTable] = None) -> None:
        self.decl = decl
        self.stats = stats if stats is not None else EngineStats()
        self.symbols = symbols if symbols is not None else SymbolTable()
        self._columns: List[array] = [array("q")
                                      for _ in range(decl.arity)]
        self._row_ids: Dict[Tuple[int, ...], int] = {}
        self._indexes: List[Dict[int, Set[int]]] = [
            {} for _ in range(decl.arity)
        ]
        self._free: List[int] = []
        self._next_rid = 0
        self._shared = False
        self._owned: Optional[List[Set[int]]] = None
        #: Bumped by every mutation that changes the extension (see
        #: :meth:`FactStore.generation`).
        self.generation = 0

    def freeze_view(self) -> "Relation":
        """An immutable view sharing this relation's storage (O(1)).

        Both the view and the live relation are marked shared; the live
        side privatizes lazily on its next mutation, the view never
        mutates (it is only handed to read-only snapshot stores).
        """
        view = Relation.__new__(Relation)
        view.decl = self.decl
        view.stats = self.stats
        view.symbols = self.symbols
        view._columns = self._columns
        view._row_ids = self._row_ids
        view._indexes = self._indexes
        view._free = self._free
        view._next_rid = self._next_rid
        view._shared = True
        view._owned = None
        view.generation = self.generation
        self._shared = True
        # Every bucket is now reachable from the view: own none of them.
        self._owned = [set() for _ in range(self.decl.arity)]
        return view

    def _ensure_private(self) -> None:
        """Detach the containers from any frozen view before mutating.

        Copies the columns, the row-id dict and each index dict shallowly
        (C-level copies); the buckets stay shared until
        :meth:`add_codes` / :meth:`remove_codes` first change them.
        """
        if self._shared:
            self._columns = [column[:] for column in self._columns]
            self._row_ids = self._row_ids.copy()
            self._indexes = [index.copy() for index in self._indexes]
            self._free = self._free[:]
            self._shared = False
            self.stats.cow_relations_privatized += 1

    def _own_bucket(self, position: int, code: int,
                    bucket: Set[int]) -> Set[int]:
        """The live side's private copy of a shared bucket."""
        copy = set(bucket)
        self._indexes[position][code] = copy
        self._owned[position].add(code)
        self.stats.cow_buckets_copied += 1
        return copy

    def __len__(self) -> int:
        return len(self._row_ids)

    def __contains__(self, row: Tuple[object, ...]) -> bool:
        codes = self.symbols.code_row(row)
        return MISSING not in codes and codes in self._row_ids

    def rows(self) -> Iterator[Tuple[object, ...]]:
        values = self.symbols.values
        for codes in self._row_ids:
            yield tuple(values[code] for code in codes)

    def row_codes(self) -> Iterator[Tuple[int, ...]]:
        """The stored rows as code tuples (engine-internal)."""
        return iter(self._row_ids)

    def contains_codes(self, codes: Tuple[int, ...]) -> bool:
        """Membership of a pre-interned row (engine-internal)."""
        return codes in self._row_ids

    def add(self, row: Tuple[object, ...]) -> bool:
        """Insert a row; returns True when it was not already present."""
        if len(row) != self.decl.arity:
            raise ArityError(
                f"{self.decl.name} expects {self.decl.arity} arguments, "
                f"got {len(row)}"
            )
        table = self.symbols
        before = len(table)
        codes = tuple(table.intern(value) for value in row)
        self.stats.intern_hits += len(codes) - (len(table) - before)
        return self.add_codes(codes)

    def add_codes(self, codes: Tuple[int, ...]) -> bool:
        """Insert a pre-interned row (restore / replay fast path)."""
        if codes in self._row_ids:
            return False
        self._ensure_private()
        if self._free:
            rid = self._free.pop()
            for position, code in enumerate(codes):
                self._columns[position][rid] = code
        else:
            rid = self._next_rid
            self._next_rid += 1
            for position, code in enumerate(codes):
                self._columns[position].append(code)
        self._row_ids[codes] = rid
        self.generation += 1
        owned = self._owned
        for position, code in enumerate(codes):
            index = self._indexes[position]
            bucket = index.get(code)
            if bucket is None:
                index[code] = {rid}
                if owned is not None:
                    owned[position].add(code)
            else:
                if owned is not None and code not in owned[position]:
                    bucket = self._own_bucket(position, code, bucket)
                bucket.add(rid)
        return True

    def remove(self, row: Tuple[object, ...]) -> bool:
        """Delete a row; returns True when it was present."""
        codes = self.symbols.code_row(row)
        if MISSING in codes:
            return False
        return self.remove_codes(codes)

    def remove_codes(self, codes: Tuple[int, ...]) -> bool:
        """Delete a pre-interned row; returns True when it was present."""
        rid = self._row_ids.get(codes)
        if rid is None:
            return False
        self._ensure_private()
        del self._row_ids[codes]
        self.generation += 1
        owned = self._owned
        for position, code in enumerate(codes):
            index = self._indexes[position]
            bucket = index.get(code)
            if bucket is None:
                continue
            if len(bucket) == 1 and rid in bucket:
                # Emptied: drop the key; a shared bucket needs no copy.
                del index[code]
                continue
            if owned is not None and code not in owned[position]:
                bucket = self._own_bucket(position, code, bucket)
            bucket.discard(rid)
        self._free.append(rid)
        return True

    def lookup(self, pattern: Sequence[object]) -> Iterator[Tuple[object, ...]]:
        """Yield rows matching *pattern*, where ``None``/Variable = wildcard.

        Counter semantics (pinned by ``tests/datalog/test_lookup_stats.py``):

        * ``index_lookups`` — bumped **exactly once** per lookup that has
          at least one bound column, whether it hits or misses (a
          fully-bound membership probe, an empty or missing index
          bucket, and a bound value the store never interned all count
          as one lookup).  A fully unbound scan does not consult an
          index and bumps nothing here.
        * ``facts_scanned`` — the number of candidate rows **yielded**
          to the caller: the whole relation for an unbound scan, the
          matched rows otherwise.  Misses therefore add zero.
        * ``index_intersections`` — bumped once per lookup that had to
          combine two or more non-empty column buckets (smallest bucket
          first, so the set intersection is proportional to the most
          selective column).

        Bound pattern values are soft-resolved against the symbol table:
        a value that was never interned cannot match any stored row, so
        the lookup short-circuits without growing the table.
        """
        stats = self.stats
        code_of = self.symbols.code
        bound: List[Tuple[int, int]] = []
        unmatchable = False
        for position, value in enumerate(pattern):
            if value is None or isinstance(value, Variable):
                continue
            code = code_of(value)
            if code == MISSING:
                unmatchable = True
            bound.append((position, code))
        if not bound:
            stats.facts_scanned += len(self._row_ids)
            values = self.symbols.values
            for codes in self._row_ids:
                yield tuple(values[code] for code in codes)
            return
        stats.index_lookups += 1
        if unmatchable:
            return
        if len(bound) == self.decl.arity:
            codes = tuple(code for _position, code in bound)
            if codes in self._row_ids:
                stats.facts_scanned += 1
                yield tuple(pattern)
            return
        buckets: List[Set[int]] = []
        for position, code in bound:
            bucket = self._indexes[position].get(code)
            if not bucket:
                return  # one empty bucket: no row can match
            buckets.append(bucket)
        values = self.symbols.values
        columns = self._columns
        if len(buckets) == 1:
            rids: Iterable[int] = buckets[0]
            stats.facts_scanned += len(buckets[0])
        else:
            buckets.sort(key=len)
            stats.index_intersections += 1
            matched = buckets[0].intersection(*buckets[1:])
            stats.facts_scanned += len(matched)
            rids = matched
        for rid in rids:
            yield tuple(values[column[rid]] for column in columns)

    def clear(self) -> None:
        if self._row_ids:
            self.generation += 1
        if self._shared:
            # A frozen view still references the old storage; just start
            # fresh instead of copying columns only to empty them.
            self._columns = [array("q") for _ in range(self.decl.arity)]
            self._row_ids = {}
            self._indexes = [{} for _ in range(self.decl.arity)]
            self._free = []
            self._next_rid = 0
            self._shared = False
            self._owned = None
            return
        for column in self._columns:
            del column[:]
        self._row_ids.clear()
        for index in self._indexes:
            index.clear()
        del self._free[:]
        self._next_rid = 0
        # The (private) index dicts are empty, so every later bucket is
        # created fresh by this side.
        self._owned = None


class FactStore:
    """A collection of relations — the EDB half of the deductive database.

    All relations of one store intern through a single
    :class:`SymbolTable`; a :class:`~repro.datalog.engine.DeductiveDatabase`
    additionally shares one table between its EDB and derived stores, so
    codes are join-comparable across every relation of the engine.
    """

    def __init__(self, decls: Iterable[PredicateDecl] = (),
                 stats: Optional[EngineStats] = None,
                 symbols: Optional[SymbolTable] = None) -> None:
        self.stats = stats if stats is not None else EngineStats()
        self.symbols = symbols if symbols is not None else SymbolTable()
        self._relations: Dict[str, Relation] = {}
        self._decls: Dict[str, PredicateDecl] = {}
        for decl in decls:
            self.declare(decl)

    def set_stats(self, stats: EngineStats) -> None:
        """Swap the instrumentation context (a new session began)."""
        self.stats = stats
        for relation in self._relations.values():
            relation.stats = stats

    def fork_shared(self, stats: Optional[EngineStats] = None) -> "FactStore":
        """An immutable copy-on-write fork of this store (O(predicates)).

        Every relation of the fork is a :meth:`Relation.freeze_view` of
        the live one — columns and index buckets are shared by
        reference, never copied, and the append-only symbol table is
        shared outright (codes recorded at fork time decode identically
        forever).  The live store privatizes each relation's containers
        lazily on its first post-fork mutation and copies an index
        bucket only when it changes it, so the fork observes exactly the
        extension at fork time.  The fork carries its own ``stats`` so
        concurrent readers do not race the live session's
        instrumentation counters.
        """
        fork = FactStore.__new__(FactStore)
        fork.stats = stats if stats is not None else EngineStats()
        fork.symbols = self.symbols
        fork._decls = dict(self._decls)
        fork._relations = {}
        for name, relation in self._relations.items():
            view = relation.freeze_view()
            view.stats = fork.stats
            fork._relations[name] = view
        return fork

    # -- declarations -------------------------------------------------------

    def declare(self, decl: PredicateDecl) -> None:
        """Register a base predicate.  Re-declaring identically is a no-op."""
        existing = self._decls.get(decl.name)
        if existing is not None:
            if existing == decl:
                return
            raise DuplicatePredicateError(
                f"predicate {decl.name} already declared differently"
            )
        self._decls[decl.name] = decl
        self._relations[decl.name] = Relation(decl, self.stats, self.symbols)

    def is_declared(self, name: str) -> bool:
        return name in self._decls

    def decl(self, name: str) -> PredicateDecl:
        try:
            return self._decls[name]
        except KeyError:
            raise UnknownPredicateError(f"unknown predicate {name}") from None

    def decls(self) -> Iterator[PredicateDecl]:
        return iter(self._decls.values())

    def predicates(self) -> Iterator[str]:
        return iter(self._decls)

    def generation(self) -> int:
        """A modification generation of the whole store.

        The sum of the relations' mutation counters: it grows with every
        change to any extension, whichever entry point made it (the fact
        API, a :class:`Relation` driven directly, a restore), and stays
        put otherwise.  Callers compare two readings to learn whether
        the store changed in between.
        """
        return sum(relation.generation
                   for relation in self._relations.values())

    # -- fact manipulation --------------------------------------------------

    def _relation(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise UnknownPredicateError(f"unknown predicate {name}") from None

    def relation(self, name: str) -> Relation:
        """The :class:`Relation` backing one predicate (for plan
        execution, which drives index lookups at the row level)."""
        return self._relation(name)

    def add(self, fact: Atom) -> bool:
        """Insert a ground atom.  Returns True when newly inserted."""
        if not fact.is_ground():
            raise NotGroundError(f"cannot store non-ground atom {fact!r}")
        return self._relation(fact.pred).add(fact.args)

    def remove(self, fact: Atom) -> bool:
        """Delete a ground atom.  Returns True when it was present."""
        if not fact.is_ground():
            raise NotGroundError(f"cannot delete non-ground atom {fact!r}")
        return self._relation(fact.pred).remove(fact.args)

    def contains(self, fact: Atom) -> bool:
        if not fact.is_ground():
            raise NotGroundError(f"containment of non-ground atom {fact!r}")
        return fact.args in self._relation(fact.pred)

    def count(self, pred: str) -> int:
        return len(self._relation(pred))

    def total_facts(self) -> int:
        return sum(len(rel) for rel in self._relations.values())

    def facts(self, pred: str) -> Iterator[Atom]:
        """Yield every fact of one predicate."""
        relation = self._relation(pred)
        for row in relation.rows():
            yield Atom(pred, row)

    def all_facts(self) -> Iterator[Atom]:
        for pred in self._relations:
            yield from self.facts(pred)

    def matching(self, pattern: Atom) -> Iterator[Atom]:
        """Yield facts matching *pattern* (variables act as wildcards)."""
        relation = self._relation(pattern.pred)
        # Repeated variables in the pattern constrain matches, so check
        # them after the index lookup.
        positions_by_var: Dict[Variable, List[int]] = {}
        for position, arg in enumerate(pattern.args):
            if isinstance(arg, Variable):
                positions_by_var.setdefault(arg, []).append(position)
        repeated = [ps for ps in positions_by_var.values() if len(ps) > 1]
        for row in relation.lookup(pattern.args):
            if repeated:
                ok = all(
                    len({row[p] for p in positions}) == 1 for positions in repeated
                )
                if not ok:
                    continue
            yield Atom(pattern.pred, row)

    def clear(self, pred: Optional[str] = None) -> None:
        """Remove all facts of one predicate, or of every predicate."""
        if pred is None:
            for relation in self._relations.values():
                relation.clear()
        else:
            self._relation(pred).clear()

    def snapshot(self) -> Dict[str, Set[Tuple[object, ...]]]:
        """A deep copy of all extensions (decoded values).

        Value-typed so snapshots of *different* stores compare — two
        stores intern independently, their codes are not comparable.
        Within one store, :meth:`snapshot_codes` is the cheap path.
        """
        return {name: set(rel.rows()) for name, rel in self._relations.items()}

    def restore(self, snapshot: Dict[str, Set[Tuple[object, ...]]]) -> None:
        """Restore extensions saved by :meth:`snapshot`."""
        for name, relation in self._relations.items():
            relation.clear()
            for row in snapshot.get(name, ()):
                relation.add(row)

    def snapshot_codes(self) -> Dict[str, Set[Tuple[int, ...]]]:
        """All extensions as *interned* row sets, for session rollback.

        Codes never expire (the symbol table is append-only), so this is
        one set copy per relation — no decoding — and
        :meth:`restore_codes` re-inserts without re-interning.  Only
        meaningful against the same store (or a fork sharing its symbol
        table); use :meth:`snapshot` to compare across stores.
        """
        return {name: set(rel.row_codes())
                for name, rel in self._relations.items()}

    def restore_codes(self, snapshot: Dict[str, Set[Tuple[int, ...]]]) -> None:
        """Restore extensions saved by :meth:`snapshot_codes`."""
        for name, relation in self._relations.items():
            relation.clear()
            for codes in snapshot.get(name, ()):
                relation.add_codes(codes)
