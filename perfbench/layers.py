"""Per-layer spans from wrappers around the public calls into each layer.

:class:`LayerTracer` replaces selected methods of the program's classes
with wrappers that open a span, call through, close the span and
re-raise whatever the call raised.  Nothing in the program changes;
:meth:`LayerTracer.uninstall` puts every original back.  Only the
traced run installs them — end-to-end numbers come from runs without.

Besides spans, the tracer keeps a per-session ledger: how many EES
checks each session ran and the session's
:class:`~repro.datalog.plan.EngineStats` counters, read off the session
when it commits or rolls back.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Dict, List, Optional, Tuple

from harness import SpanLog, mean, percentile

#: Root spans the workloads open around each of their own operations;
#: the unattributed share is measured against these.
ROOT_SPANS = ("op.session", "op.read", "op.object", "op.schema_change",
              "op.drain")

#: EngineStats counters copied into the session ledger.
STATS_FIELDS = ("wal_records", "wal_bytes", "wal_fsyncs", "maint_rederived",
                "maint_deleted", "join_tuples", "facts_scanned",
                "plans_compiled", "plan_cache_hits", "delta_fallbacks",
                "checks_run", "constraints_checked", "violations_found")


def _count(result) -> float:
    return float(len(result))


def _violations(report) -> float:
    return float(len(report.violations))


def _attr_kind(masked: str, native: str):
    """Name a runtime access span by whether the object holds the slot
    before the call (native) or the access is resolved by masking."""
    def choose(args) -> str:
        obj, attr = args[1], args[2]
        return native if attr in obj.slots else masked
    return choose


class LayerTracer:
    """Installs and removes the span wrappers; owns the span log."""

    def __init__(self) -> None:
        self.log = SpanLog()
        self.sessions: List[Dict[str, float]] = []
        self._checks: Dict[int, int] = {}
        self._saved: List[Tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        from repro.analyzer import analyzer, evolution
        from repro.analyzer.evolution import EvolutionPrimitives
        from repro.analyzer.translator import Translator
        from repro.control.session import EvolutionSession
        from repro.datalog.checker import ConsistencyChecker
        from repro.datalog.engine import DeductiveDatabase
        from repro.datalog.repair import RepairGenerator
        from repro.gom.model import GomDatabase
        from repro.runtime.migration import BackgroundMigrator, MigrationEngine
        from repro.runtime.objects import RuntimeSystem
        from repro.storage.store import DurableStore

        # analyzer
        self._wrap(analyzer, "parse_source", "analyzer.parse")
        self._wrap(evolution, "parse_code_text", "analyzer.parse")
        self._wrap(Translator, "translate_unit", "analyzer.translate")
        for name in sorted(vars(EvolutionPrimitives)):
            if not name.startswith("_") and \
                    callable(getattr(EvolutionPrimitives, name)):
                self._wrap(EvolutionPrimitives, name, "analyzer.primitives")
        # control
        self._wrap(EvolutionSession, "check", "control.check",
                   before=self._count_check)
        self._wrap(EvolutionSession, "modify", "control.modify")
        self._wrap(EvolutionSession, "repairs", "control.repairs")
        self._wrap(EvolutionSession, "commit", "control.commit",
                   after=lambda args: self._end_session(args, "commit"))
        self._wrap(EvolutionSession, "rollback", "control.rollback",
                   after=lambda args: self._end_session(args, "rollback"))
        # datalog.checker / engine / repair
        self._wrap(ConsistencyChecker, "check_delta", "checker.check_delta",
                   value=_violations)
        self._wrap(ConsistencyChecker, "check", "checker.check",
                   value=_violations)
        self._wrap(DeductiveDatabase, "apply_delta", "engine.apply_delta")
        self._wrap(DeductiveDatabase, "materialize", "engine.materialize")
        self._wrap(RepairGenerator, "repairs", "repair.repairs",
                   value=_count)
        # storage
        for method, span in (("begin_session", "storage.begin"),
                             ("log_operations", "storage.log"),
                             ("commit_session", "storage.commit"),
                             ("annotate", "storage.annotate"),
                             ("rollback_session", "storage.rollback")):
            self._wrap(DurableStore, method, span)
        # gom.model
        self._wrap(GomDatabase, "publish_snapshot", "model.publish")
        # runtime.objects
        self._wrap(RuntimeSystem, "get_attr", None,
                   name_of=_attr_kind("runtime.get_masked",
                                      "runtime.get_native"))
        self._wrap(RuntimeSystem, "set_attr", None,
                   name_of=_attr_kind("runtime.set_masked", "runtime.set"))
        self._wrap(RuntimeSystem, "call", "runtime.call")
        # runtime.migration: only touches that converted are recorded
        # (a no-op touch stays in its runtime access span's self time).
        self._wrap(MigrationEngine, "touch", "migration.touch",
                   value=float, keep=bool)
        self._wrap(MigrationEngine, "add_slot", "migration.register")
        self._wrap(MigrationEngine, "delete_slot", "migration.register")
        self._wrap(BackgroundMigrator, "run_once", "migration.drain",
                   value=float)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, owner, attr: str, span: Optional[str],
              value: Optional[Callable[[object], float]] = None,
              keep: Optional[Callable[[object], bool]] = None,
              name_of: Optional[Callable[[tuple], str]] = None,
              before: Optional[Callable[[tuple], None]] = None,
              after: Optional[Callable[[tuple], None]] = None) -> None:
        original = vars(owner)[attr]
        log = self.log

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            name = span if name_of is None else name_of(args)
            if before is not None:
                before(args)
            handle = log.open()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                log.close(handle, name)
                raise
            if keep is not None and not keep(result):
                log.discard(handle)
            else:
                log.close(handle, name,
                          math.nan if value is None else value(result))
            if after is not None:
                after(args)
            return result

        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    # -- the session ledger --------------------------------------------------------

    def _count_check(self, args) -> None:
        key = id(args[0])
        self._checks[key] = self._checks.get(key, 0) + 1

    def _end_session(self, args, outcome: str) -> None:
        session = args[0]
        row = {"outcome": outcome,
               "checks": self._checks.pop(id(session), 0)}
        for field in STATS_FIELDS:
            row[field] = getattr(session.stats, field)
        self.sessions.append(row)


def _stat(log: SpanLog, groups, selfs, name: str, what: str,
          scale: float = 1000.0) -> float:
    indexes = groups.get(name, [])
    if what == "self":
        values = [selfs[i] for i in indexes]
    else:
        values = [log.end[i] - log.start[i] for i in indexes]
    if not values:
        return 0.0
    if what in ("self", "mean"):
        return mean(values) * scale
    return percentile(values, float(what[1:])) * scale


def layer_metrics(tracer: LayerTracer, extra: Dict[str, float]
                  ) -> Dict[str, float]:
    """Every per-layer metric of one traced window.

    *extra* supplies what the workload measured itself (debt samples,
    generator lateness, recovery time, tracing overhead).  Time
    metrics are the mean per call unless the name ends in a
    percentile; ``*_self_*`` metrics subtract the time child spans
    cover.  A layer that did no work on the workload reports 0.
    """
    log = tracer.log
    groups = log.by_name()
    selfs = log.self_times()

    def stat(name, what="mean", scale=1000.0):
        return _stat(log, groups, selfs, name, what, scale)

    def count(name):
        return len(groups.get(name, ()))

    def value_sum(name):
        return sum(v for v in (log.value[i] for i in groups.get(name, ()))
                   if not math.isnan(v))

    # Touches on object access, not the ones a drain batch makes.
    parents = {log.span_id[i]: log.names[log.name[i]]
               for i in range(len(log))}
    groups["migration.touch_on_access"] = [
        i for i in groups.get("migration.touch", [])
        if parents.get(log.parent[i], "").startswith("runtime.")]

    sessions = tracer.sessions
    committed_checks = [row["checks"] for row in sessions
                        if row["outcome"] == "commit"]

    def per_session(field):
        return mean([row[field] for row in sessions])

    compiled = sum(row["plans_compiled"] for row in sessions)
    hits = sum(row["plan_cache_hits"] for row in sessions)
    checks_run = sum(row["checks_run"] for row in sessions)
    repairs_calls = count("repair.repairs")
    drain_indexes = groups.get("migration.drain", [])
    drain_seconds = sum(log.end[i] - log.start[i] for i in drain_indexes)
    metrics = {
        "analyzer.parse_ms": stat("analyzer.parse"),
        "analyzer.translate_self_ms": stat("analyzer.translate", "self"),
        "analyzer.primitives_self_ms": stat("analyzer.primitives", "self"),
        "control.checks_per_session": (
            percentile(committed_checks, 50.0) if committed_checks else 0.0),
        "control.modify_self_ms": stat("control.modify", "self"),
        "control.rollback_ms": stat("control.rollback"),
        "checker.check_delta_ms_p50": stat("checker.check_delta", "p50"),
        "checker.check_delta_ms_p95": stat("checker.check_delta", "p95"),
        "checker.constraints_checked_per_check": (
            sum(row["constraints_checked"] for row in sessions) / checks_run
            if checks_run else 0.0),
        "checker.violations_per_session": (
            (value_sum("checker.check_delta") + value_sum("checker.check"))
            / len(sessions) if sessions else 0.0),
        "engine.apply_delta_ms": stat("engine.apply_delta"),
        "engine.materialize_ms": stat("engine.materialize"),
        "engine.maint_rederived_per_session": per_session("maint_rederived"),
        "engine.maint_deleted_per_session": per_session("maint_deleted"),
        "engine.join_tuples_per_session": per_session("join_tuples"),
        "engine.facts_scanned_per_session": per_session("facts_scanned"),
        "engine.plan_cache_hit_ratio": (
            hits / (hits + compiled) if hits + compiled else 0.0),
        "engine.delta_fallbacks": float(
            sum(row["delta_fallbacks"] for row in sessions)),
        "repair.repairs_ms": stat("repair.repairs"),
        "repair.repairs_per_violation": (
            value_sum("repair.repairs") / repairs_calls
            if repairs_calls else 0.0),
        "storage.commit_ms": stat("storage.commit"),
        "storage.log_ms": stat("storage.log"),
        "storage.fsyncs_per_session": per_session("wal_fsyncs"),
        "storage.wal_records_per_session": per_session("wal_records"),
        "storage.wal_bytes_per_session": per_session("wal_bytes"),
        "model.publish_ms": stat("model.publish"),
        "service.queue_wait_ms_p50": stat("service.queue_wait", "p50"),
        "service.queue_wait_ms_p99": stat("service.queue_wait", "p99"),
        "service.read_exec_ms_p50": stat("service.read_exec", "p50"),
        "service.read_exec_ms_p99": stat("service.read_exec", "p99"),
        "runtime.get_native_us": stat("runtime.get_native", scale=1e6),
        "runtime.get_masked_us": stat("runtime.get_masked", scale=1e6),
        "runtime.set_us": stat("runtime.set", scale=1e6),
        "runtime.set_masked_us": stat("runtime.set_masked", scale=1e6),
        "runtime.call_us": stat("runtime.call", scale=1e6),
        "migration.touch_converted": float(
            count("migration.touch_on_access")),
        "migration.touch_convert_us": stat("migration.touch_on_access",
                                           scale=1e6),
        "migration.register_ms": stat("migration.register"),
        "migration.drain_batch_ms": stat("migration.drain"),
        "migration.drain_objects_per_s": (
            value_sum("migration.drain") / drain_seconds
            if drain_seconds > 0 else 0.0),
        "harness.unattributed_share": log.unattributed_share(ROOT_SPANS),
    }
    metrics.update(extra)
    return metrics


#: The per-layer metrics with their units, in BENCHMARK.json order.
PER_LAYER_UNITS: Dict[str, str] = {
    "analyzer.parse_ms": "ms",
    "analyzer.translate_self_ms": "ms",
    "analyzer.primitives_self_ms": "ms",
    "control.checks_per_session": "count",
    "control.modify_self_ms": "ms",
    "control.rollback_ms": "ms",
    "checker.check_delta_ms_p50": "ms",
    "checker.check_delta_ms_p95": "ms",
    "checker.constraints_checked_per_check": "count",
    "checker.violations_per_session": "count",
    "engine.apply_delta_ms": "ms",
    "engine.materialize_ms": "ms",
    "engine.maint_rederived_per_session": "count",
    "engine.maint_deleted_per_session": "count",
    "engine.join_tuples_per_session": "count",
    "engine.facts_scanned_per_session": "count",
    "engine.plan_cache_hit_ratio": "ratio",
    "engine.delta_fallbacks": "count",
    "repair.repairs_ms": "ms",
    "repair.repairs_per_violation": "count",
    "storage.commit_ms": "ms",
    "storage.log_ms": "ms",
    "storage.fsyncs_per_session": "count",
    "storage.wal_records_per_session": "count",
    "storage.wal_bytes_per_session": "bytes",
    "storage.recovery_s": "s",
    "model.publish_ms": "ms",
    "service.queue_wait_ms_p50": "ms",
    "service.queue_wait_ms_p99": "ms",
    "service.read_exec_ms_p50": "ms",
    "service.read_exec_ms_p99": "ms",
    "runtime.get_native_us": "us",
    "runtime.get_masked_us": "us",
    "runtime.set_us": "us",
    "runtime.set_masked_us": "us",
    "runtime.call_us": "us",
    "migration.touch_converted": "count",
    "migration.touch_convert_us": "us",
    "migration.register_ms": "ms",
    "migration.drain_batch_ms": "ms",
    "migration.drain_objects_per_s": "1/s",
    "migration.debt_max": "count",
    "harness.unattributed_share": "ratio",
    "harness.tracing_overhead": "ratio",
    "harness.generator_late_ms_p99": "ms",
}
