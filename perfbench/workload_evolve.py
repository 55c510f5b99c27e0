"""The ``evolve`` workload: closed-loop evolution sessions on a durable base.

One client runs sessions back to back through
:meth:`SchemaManager.evolve` (the nine-step protocol) on a durable,
snapshot-publishing manager over a ~200-type synthetic schema:

* most sessions are one primitive: add, delete or rename of an
  attribute, a type or an operation;
* 3 in 100 define a tenant schema from DDL text with method bodies
  (``manager.define``); a later session drops the oldest tenant again;
* 10 in 100 inject one of the five seeded violations (two of each
  kind); 8 are cured by ``choose_first``, 2 undone by ``always_rollback``.

Sessions are dealt in shuffled blocks of 100 with these fixed counts.

Deletes pair with adds — every benchmark-made extra lives in a bounded
pool, and what a cure leaves behind is cleaned up by the next session —
so the schema stays within a size band however long the run.

Checks: every session ends with the outcome its generator expected;
after the window a full check is consistent, and reopening the
directory (timed: the recovery time) reproduces the live EDB digest.
"""

from __future__ import annotations

import os
import random
import shutil
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.control.protocol import always_rollback, choose_first
from repro.datalog.terms import Atom
from repro.gom.builtins import builtin_type
from repro.manager import SchemaManager
from repro.service.stress import edb_digest
from repro.workloads.synthetic import (SyntheticSchema, generate_schema,
                                       seeded_violation)

from harness import HostSpeed, Window

BASE_TYPES = 200
#: The base schema is the same in every run, so runs with different
#: seeds compare one schema; ``--seed`` drives everything sent to it.
BASE_SEED = 1993
#: Benchmark-made extras of one kind kept alive at most (deletes pair
#: with adds inside this band).
POOL_CAP = 24
#: Tenant schemas kept alive at most; defining one more drops the oldest.
MAX_TENANTS = 2
#: Sessions are dealt in shuffled blocks with fixed counts, so only the
#: order depends on the seed: per block of 100, 3 DDL tenant schemas,
#: 2 seeded violations of each kind (2 of those 10 undone by the user),
#: and single-step primitives for the rest.
BLOCK = 100
DDL_PER_BLOCK = 3
VIOLATIONS_PER_KIND = 2
ROLLBACKS_PER_BLOCK = 2
VIOLATION_KINDS = ("dangling_domain", "duplicate_type_name",
                   "subtype_cycle", "missing_code", "bad_refinement")
WARMUP_SESSIONS = 40
DOMAINS = ("int", "float", "string")
#: Base predicates a tenant's facts live in (first argument = its id).
TENANT_PREDICATES = ("Schema", "Type", "Attr", "SubTypRel", "Decl",
                     "ArgDecl", "DeclRefinement", "Code", "CodeReqDecl",
                     "CodeReqAttr")

CONFIG = {"base_types": BASE_TYPES, "base_seed": BASE_SEED,
          "pool_cap": POOL_CAP,
          "max_tenants": MAX_TENANTS, "block": BLOCK,
          "ddl_per_block": DDL_PER_BLOCK,
          "violations_per_kind_per_block": VIOLATIONS_PER_KIND,
          "rollbacks_per_block": ROLLBACKS_PER_BLOCK,
          "warmup_sessions": WARMUP_SESSIONS, "loop": "closed, 1 client",
          "storage": "durable (SchemaManager.open), snapshots published"}

TENANT_SOURCE = """
schema Tenant{k} is
type Account{k} is
  [ balance : int;
    owner   : string; ]
operations
  declare deposit : int -> int;
implementation
  define deposit(amount) is
  begin
    self.balance := self.balance + amount;
    return self.balance;
  end deposit;
end type Account{k};
type Savings{k} supertype Account{k} is
  [ rate : float; ]
refine
  declare deposit : int -> int;
implementation
  define deposit(amount) is
  begin
    if (amount > 0)
    begin
      return super.deposit(amount);
    end
    else return self.balance;
  end deposit;
end type Savings{k};
end schema Tenant{k};
"""


# -- the durable base (shared with the serve workload) ----------------------------

def open_base(directory: str) -> Tuple[SchemaManager, SyntheticSchema]:
    """A durable manager over a fresh ~200-type synthetic schema,
    generated in one checked session (the workloads checkpoint after
    their warm-up, so the WAL holds only what the measured run adds)."""
    manager = SchemaManager.open(directory)
    schema = generate_schema(manager, BASE_TYPES, seed=BASE_SEED,
                             check=True)
    manager.model.enable_snapshots()
    return manager, schema


@dataclass
class Pools:
    """The benchmark-made extras that later sessions may delete."""

    attributes: List[Tuple[object, str]] = field(default_factory=list)
    types: List[Tuple[object, object]] = field(default_factory=list)
    operations: List[object] = field(default_factory=list)
    #: SubTypRel edges a cured subtype cycle left behind.
    edges: List[Tuple[object, object]] = field(default_factory=list)
    tenants: Deque[object] = field(default_factory=deque)
    counter: int = 0

    def fresh(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"


Changes = Callable[[object], None]


def primitive_change(manager: SchemaManager, base: SyntheticSchema,
                     pools: Pools, rng: random.Random
                     ) -> Tuple[str, Changes]:
    """One single-step primitive session: (kind, changes).

    The pools are updated when *changes* runs, i.e. inside the session;
    every primitive here leaves the schema consistent.
    """
    model = manager.model
    if pools.edges:
        sub, sup = pools.edges.pop()
        return "delete_supertype", lambda session: manager.analyzer \
            .primitives(session).remove_supertype(sub, sup)
    category = rng.choice(("attribute", "type", "operation"))
    pool = getattr(pools, category + "s")
    if not pool:
        action = "add"
    elif len(pool) >= POOL_CAP:
        action = "delete"
    else:
        action = rng.choice(("add", "delete", "rename"))
    kind = f"{action}_{category}"

    if category == "attribute":
        if action == "add":
            tid = rng.choice(base.type_ids)
            name = pools.fresh("x")
            domain = builtin_type(rng.choice(DOMAINS))
            pool.append((tid, name))
            return kind, lambda session: manager.analyzer.primitives(
                session).add_attribute(tid, name, domain)
        index = rng.randrange(len(pool))
        tid, name = pool[index]
        if action == "delete":
            del pool[index]
            return kind, lambda session: manager.analyzer.primitives(
                session).delete_attribute(tid, name)
        new_name = pools.fresh("x")
        pool[index] = (tid, new_name)
        return kind, lambda session: manager.analyzer.primitives(
            session).rename_attribute(tid, name, new_name)

    if category == "type":
        if action == "add":
            sup = rng.choice(base.type_ids)
            name = pools.fresh("X")

            def add_type(session):
                tid = manager.analyzer.primitives(session).add_type(
                    base.sid, name, supertypes=(sup,))
                pool.append((tid, sup))
            return kind, add_type
        index = rng.randrange(len(pool))
        tid, sup = pool[index]
        if action == "delete":
            del pool[index]

            def delete_type(session):
                prims = manager.analyzer.primitives(session)
                prims.remove_supertype(tid, sup)
                prims.delete_type(tid)
            return kind, delete_type
        new_name = pools.fresh("X")
        return kind, lambda session: manager.analyzer.primitives(
            session).rename_type(tid, new_name)

    if action == "add":
        tid = rng.choice(base.type_ids)
        name = pools.fresh("op")
        code = f"{name}() is return {pools.counter};"

        def add_operation(session):
            pool.append(manager.analyzer.primitives(session).add_operation(
                tid, name, (), builtin_type("int"), code_text=code))
        return kind, add_operation
    index = rng.randrange(len(pool))
    did = pool[index]
    if action == "delete":
        del pool[index]
        return kind, lambda session: manager.analyzer.primitives(
            session).delete_operation(did)
    new_name = pools.fresh("op")

    def rename_operation(session):
        # There is no rename primitive for operations: swap the Decl fact.
        for fact in list(model.db.matching(Atom("Decl",
                                                (did, None, None, None)))):
            session.modify(
                additions=[Atom("Decl", (did, fact.args[1], new_name,
                                         fact.args[3]))],
                deletions=[fact])
    return kind, rename_operation


def drop_tenant(manager: SchemaManager, sid) -> Changes:
    """Changes deleting every fact of one tenant schema."""
    db = manager.model.db

    def changes(session):
        ids = {sid}
        ids |= {fact.args[0] for fact in db.matching(
            Atom("Type", (None, None, sid)))}
        for tid in list(ids):
            ids |= {fact.args[0] for fact in db.matching(
                Atom("Decl", (None, tid, None, None)))}
        for did in list(ids):
            ids |= {fact.args[0] for fact in db.matching(
                Atom("Code", (None, None, did)))}
        deletions = [fact for pred in TENANT_PREDICATES
                     for fact in db.facts(pred) if fact.args[0] in ids]
        session.modify(deletions=deletions)
    return changes


# -- the workload -----------------------------------------------------------------

@dataclass
class Sample:
    kind: str
    ms: float
    end: float
    ok: bool
    wal_bytes: int


@dataclass
class EvolveWorld:
    manager: SchemaManager
    base: SyntheticSchema
    directory: str
    rng: random.Random
    pools: Pools = field(default_factory=Pools)
    #: The rest of the current block of session kinds.
    deck: List[tuple] = field(default_factory=list)
    samples: List[Sample] = field(default_factory=list)
    checks: Dict[str, bool] = field(default_factory=dict)
    recovery_s: float = 0.0

    @property
    def wal_bytes(self) -> List[int]:
        return [sample.wal_bytes for sample in self.samples]


def deal(rng: random.Random) -> List[tuple]:
    """One shuffled block of session kinds."""
    violations = [("violation", kind, False) for kind in VIOLATION_KINDS
                  for _ in range(VIOLATIONS_PER_KIND)]
    for index in rng.sample(range(len(violations)), ROLLBACKS_PER_BLOCK):
        violations[index] = violations[index][:2] + (True,)
    block = [("ddl",)] * DDL_PER_BLOCK + violations
    block += [("primitive",)] * (BLOCK - len(block))
    rng.shuffle(block)
    return block


def next_session(world: EvolveWorld) -> Tuple[str, Callable[[], str], str]:
    """(kind, run, expected outcome) of the next session in the mix."""
    manager, rng, pools = world.manager, world.rng, world.pools
    if len(pools.tenants) > MAX_TENANTS:
        sid = pools.tenants.popleft()
        changes = drop_tenant(manager, sid)
        return ("drop_tenant",
                lambda: manager.evolve(changes).outcome, "consistent")
    if not world.deck:
        world.deck = deal(rng)
    entry = world.deck.pop()
    if entry[0] == "ddl":
        source = TENANT_SOURCE.format(k=pools.fresh(""))
        name = source.split()[1]

        def define():
            result = manager.define(source)
            pools.tenants.append(result.schema(name))
            return "consistent"
        return "ddl", define, "consistent"
    if entry[0] == "violation":
        _, kind, rollback = entry
        violation_rng = random.Random(rng.random())

        def violate():
            result = manager.evolve(
                lambda session: seeded_violation(world.base, session,
                                                 violation_rng, kind),
                chooser=always_rollback if rollback else choose_first)
            if result.outcome == "repaired":
                _adopt_leftovers(world, result.final_report.net_additions)
            return result.outcome
        return (f"violation:{kind}", violate,
                "rolled-back" if rollback else "repaired")
    kind, changes = primitive_change(manager, world.base, pools, rng)
    return kind, lambda: manager.evolve(changes).outcome, "consistent"


def _adopt_leftovers(world: EvolveWorld, additions) -> None:
    """Hand what a cure kept (an edge of a cycle, a refining operation)
    to the pools, so later sessions delete it again."""
    for fact in additions:
        if fact.pred == "SubTypRel":
            world.pools.edges.append(tuple(fact.args))
        elif fact.pred == "Decl":
            world.pools.operations.append(fact.args[0])


def setup(seed: int, workdir: str) -> EvolveWorld:
    directory = os.path.join(workdir, "evolve-db")
    manager, base = open_base(directory)
    world = EvolveWorld(manager=manager, base=base, directory=directory,
                        rng=random.Random(seed * 7919 + 1))
    # Warm-up: first materialize, plan cache and compiled plans for
    # every session kind, then a checkpoint so the WAL starts empty.
    run_sessions(world, sessions=WARMUP_SESSIONS, log=None)
    world.samples.clear()
    manager.checkpoint()
    return world


def run_sessions(world: EvolveWorld, seconds: Optional[float] = None,
                 sessions: Optional[int] = None, log=None,
                 speed: Optional[HostSpeed] = None) -> None:
    """Run sessions for *seconds* at the reference speed of *speed*
    (sampled between sessions), or *sessions* of them."""
    manager = world.manager
    clock = time.perf_counter
    done = 0
    while (seconds is None or speed.within(seconds)) and \
            (sessions is None or done < sessions):
        if speed is not None:
            speed.poll()
        kind, run, expected = next_session(world)
        handle = log.open() if log is not None else None
        started = clock()
        try:
            outcome = run()
        except Exception as exc:            # a failed session is counted
            outcome = f"error: {exc!r}"
            active = manager.model.active_session
            if active is not None and active.active:
                active.rollback()
        ended = clock()
        if log is not None:
            log.close(handle, "op.session")
        stats = manager.last_session_stats()
        world.samples.append(Sample(kind, (ended - started) * 1000.0, ended,
                                    outcome == expected,
                                    stats.wal_bytes if stats else 0))
        done += 1


def run(world: EvolveWorld, seconds: float, log=None) -> Window:
    first = len(world.samples)
    speed = HostSpeed()
    started = time.perf_counter()
    run_sessions(world, seconds=seconds, log=log, speed=speed)
    wall = time.perf_counter() - started
    speed.sample()
    samples = world.samples[first:]
    primitives = [sample for sample in samples
                  if primitive_kind(sample.kind)]
    return Window(started=started, seconds=wall,
                  op_ms=[sample.ms for sample in samples],
                  op_end=[sample.end for sample in samples],
                  session_ms=[sample.ms for sample in primitives],
                  session_end=[sample.end for sample in primitives],
                  speed=speed)


def verify(world: EvolveWorld) -> None:
    """Post-window checks: full check, then reopen (timed) and compare."""
    manager = world.manager
    world.checks["full_check_consistent"] = manager.check().consistent
    digest = edb_digest(manager.model.db)
    manager.close()
    started = time.perf_counter()
    reopened = SchemaManager.open(world.directory)
    world.recovery_s = time.perf_counter() - started
    world.checks["recovered_digest_matches"] = \
        edb_digest(reopened.model.db) == digest
    reopened.close()


def tally(world: EvolveWorld):
    attempted = len(world.samples) + len(world.checks)
    failed = sum(1 for sample in world.samples if not sample.ok) + \
        sum(1 for ok in world.checks.values() if not ok)
    return attempted, failed


def close(world: EvolveWorld) -> None:
    world.manager.close()
    shutil.rmtree(world.directory, ignore_errors=True)


def primitive_kind(kind: str) -> bool:
    """Single-step primitive sessions (not DDL, drops or violations)."""
    return kind != "ddl" and kind != "drop_tenant" \
        and not kind.startswith("violation:")
