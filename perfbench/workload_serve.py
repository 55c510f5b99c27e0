"""The ``serve`` workload: open-loop snapshot reads beside inline writers.

The durable ~200-type base of ``evolve`` is served by
``SchemaService(readers=1)``.  The generator (the main thread) sends
read bundles at a fixed rate below one reader's capacity; a bundle asks
``type_name`` / ``attributes(inherited)`` / ``supertypes(transitive)`` /
``is_subtype`` for a few seeded types of one snapshot.  At a fixed
interval the same thread runs one primitive writer session inline (it
adds an attribute to one fixed type and deletes the one the previous
session added, so every writer session does the same work), so a
writer that holds the interpreter lock longer or publishes more slowly
delays the reads due meanwhile.  Read latency runs from the
read's due time to its completion.

Checks: no read reports an epoch older than the last one committed
before it was sent; the reads sent in an audited epoch are recomputed
after the window against the snapshot published for the epoch they
reported; every writer session commits.  Only one epoch in
:data:`AUDIT_EVERY` is audited and keeps its snapshot, so the check
does not grow the heap the collector walks.
"""

from __future__ import annotations

import os
import random
import shutil
import time
from array import array
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional

from repro.gom.builtins import builtin_type
from repro.manager import SchemaManager
from repro.service import SchemaService
from repro.workloads.synthetic import SyntheticSchema

from harness import HostSpeed, OpenLoop, Window, calibration_cost
from workload_evolve import BASE_SEED, open_base

READ_RATE = 300.0               # bundles per second, open loop
WRITE_EVERY_S = 0.25            # one inline writer session this often
TYPES_PER_READ = 4
AUDIT_EVERY = 12                # epochs: reads sent in one are audited
WARMUP_READS = 400
WARMUP_WRITES = 12
#: A host-speed sample (one reference loop) is taken only while the
#: reader is idle and the next read is due at least this much later,
#: so it delays no read.
SPEED_SLACK_S = 0.001
CONFIG = {"base_seed": BASE_SEED, "read_rate_per_s": READ_RATE, "write_every_s": WRITE_EVERY_S,
          "types_per_read": TYPES_PER_READ, "audit_every_epochs": AUDIT_EVERY,
          "readers": 1,
          "loop": "open (reads), writer inline on the generator thread",
          "storage": "durable (SchemaManager.open)"}


class Reads:
    """One window's reads, in preallocated arrays.

    No object per read outlives its request, so the check's bookkeeping
    does not grow the heap the collector walks during the window; only
    audited reads keep their types and result.
    """

    def __init__(self, capacity: int) -> None:
        zeros = bytes(8 * capacity)
        self.due = array("d", zeros)
        self.submitted = array("d", zeros)
        self.started = array("d", zeros)
        self.ended = array("d", zeros)
        self.done = array("d", zeros)
        self.epoch = array("q", zeros)
        self.min_epoch = array("q", zeros)
        self.error = array("b", bytes(capacity))
        self.count = 0
        #: read index -> (types, result) of the audited reads.
        self.audited: Dict[int, tuple] = {}


@dataclass
class ServeWorld:
    manager: SchemaManager
    base: SyntheticSchema
    directory: str
    service: SchemaService
    rng: random.Random
    #: The attribute the last writer session added, if any.
    added: Optional[str] = None
    writes: int = 0
    #: The snapshot the writer saw published for each audited epoch.
    snapshots: Dict[int, object] = field(default_factory=dict)
    windows: List[Reads] = field(default_factory=list)
    writes_ok: List[bool] = field(default_factory=list)
    wal_bytes: List[int] = field(default_factory=list)
    failed_reads: int = 0


def bundle(types, session) -> tuple:
    """One read bundle against one read session (or snapshot)."""
    first = types[0]
    return tuple(
        (session.type_name(tid),
         tuple(sorted(session.attributes(tid, inherited=True), key=repr)),
         tuple(sorted(session.supertypes(tid, transitive=True), key=repr)),
         session.is_subtype(tid, first))
        for tid in types)


def _execute(reads: Reads, index: int, types: tuple, audit: bool, clock,
             session) -> None:
    reads.started[index] = clock()
    reads.epoch[index] = session.epoch
    result = bundle(types, session)
    if audit:
        reads.audited[index] = (types, result)
    reads.ended[index] = clock()


def _finish(reads: Reads, index: int, clock, future) -> None:
    reads.done[index] = clock()
    if future.exception() is not None:
        reads.error[index] = 1


def setup(seed: int, workdir: str) -> ServeWorld:
    directory = os.path.join(workdir, "serve-db")
    manager, base = open_base(directory)
    world = ServeWorld(manager=manager, base=base, directory=directory,
                       service=SchemaService(manager, readers=1),
                       rng=random.Random(seed * 7919 + 2))
    for _ in range(WARMUP_READS):
        world.service.read(partial(bundle, _pick_types(world)))
    for _ in range(WARMUP_WRITES):
        _write(world, log=None)
    world.writes_ok.clear()
    world.wal_bytes.clear()
    manager.checkpoint()
    return world


def _pick_types(world: ServeWorld) -> tuple:
    return tuple(world.rng.sample(world.base.type_ids, TYPES_PER_READ))


def _writer_change(world: ServeWorld):
    """Add a fresh attribute to the first base type and delete the one
    the previous writer session added."""
    tid, previous = world.base.type_ids[0], world.added
    world.writes += 1
    fresh = world.added = f"w{world.writes}"
    analyzer = world.manager.analyzer

    def changes(session):
        prims = analyzer.primitives(session)
        if previous is not None:
            prims.delete_attribute(tid, previous)
        prims.add_attribute(tid, fresh, builtin_type("int"))
    return changes


def _write(world: ServeWorld, log) -> float:
    """One primitive writer session, inline; returns its milliseconds."""
    changes = _writer_change(world)
    handle = log.open() if log is not None else None
    started = time.perf_counter()
    result = world.service.evolve(changes)
    elapsed = time.perf_counter() - started
    if log is not None:
        log.close(handle, "op.session")
    world.writes_ok.append(result.outcome == "consistent")
    world.wal_bytes.append(result.stats.wal_bytes if result.stats else 0)
    if world.manager.model.epoch % AUDIT_EVERY == 0:
        world.snapshots[world.manager.model.epoch] = \
            world.manager.model.snapshot()
    return elapsed * 1000.0


def _idle(last, loop: OpenLoop, clock) -> bool:
    """Wait, while the next read is not yet due, for the reader to
    finish *last*; whether it did with :data:`SPEED_SLACK_S` to spare."""
    if last is not None:
        spare = loop.next_due() - clock() - SPEED_SLACK_S
        if spare <= 0:
            return False
        try:
            last.exception(timeout=spare)
        except TimeoutError:
            return False
    return loop.next_due() - clock() > SPEED_SLACK_S


def run(world: ServeWorld, seconds: float, log=None) -> Window:
    clock = time.perf_counter
    start = clock() + 0.01
    loop = OpenLoop(1.0 / READ_RATE, start, clock=clock)
    next_write = start + WRITE_EVERY_S
    end = start + seconds
    reads = Reads(int(READ_RATE * seconds) + 2)
    last = None
    session_ms: List[float] = []
    session_end: List[float] = []
    speed = HostSpeed(cost=partial(calibration_cost, 1))
    speed.sample()
    while loop.next_due() < end:
        if next_write <= loop.next_due():
            delay = next_write - clock()
            if delay > 0:
                time.sleep(delay)
            session_ms.append(_write(world, log))
            session_end.append(clock())
            next_write += WRITE_EVERY_S
            continue
        if speed.due(clock()) and _idle(last, loop, clock):
            speed.sample()
        index = reads.count
        reads.due[index] = loop.wait()
        epoch = reads.min_epoch[index] = world.manager.model.epoch
        reads.submitted[index] = clock()
        last = world.service.submit(partial(
            _execute, reads, index, _pick_types(world),
            epoch % AUDIT_EVERY == 0, clock))
        last.add_done_callback(partial(_finish, reads, index, clock))
        reads.count += 1
    if last is not None:
        last.exception()            # one reader: the last read ends last
    speed.sample()
    world.windows.append(reads)
    count = reads.count
    if log is not None:
        for index in range(count):
            root = log.record("op.read", reads.submitted[index],
                              reads.done[index])
            log.record("service.queue_wait", reads.submitted[index],
                       reads.started[index], parent=root, op=root)
            log.record("service.read_exec", reads.started[index],
                       reads.ended[index], parent=root, op=root)
    return Window(started=start, seconds=clock() - start,
                  op_ms=[(reads.done[i] - reads.due[i]) * 1000.0
                         for i in range(count)],
                  op_end=list(reads.done[:count]), session_ms=session_ms,
                  session_end=session_end, speed=speed, open_loop=True,
                  late_ms=[late * 1000.0 for late in loop.lateness])


def verify(world: ServeWorld) -> None:
    failed = 0
    for reads in world.windows:
        for index in range(reads.count):
            epoch = reads.epoch[index]
            if reads.error[index] or epoch < reads.min_epoch[index]:
                failed += 1
            elif index in reads.audited and epoch % AUDIT_EVERY == 0:
                # (A read sent in an audited epoch may run after the
                # next commit; that epoch has no kept snapshot.)
                types, result = reads.audited[index]
                snapshot = world.snapshots.get(epoch)
                if snapshot is None or bundle(types, snapshot) != result:
                    failed += 1
    world.failed_reads = failed


def tally(world: ServeWorld):
    attempted = sum(reads.count for reads in world.windows) + \
        len(world.writes_ok)
    return attempted, world.failed_reads + world.writes_ok.count(False)


def close(world: ServeWorld) -> None:
    world.service.close()
    world.manager.close()
    shutil.rmtree(world.directory, ignore_errors=True)
