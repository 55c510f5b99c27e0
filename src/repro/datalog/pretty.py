"""Rendering of extensions as the aligned tables the paper prints."""

from __future__ import annotations

from typing import Iterable, List, Sequence

from repro.datalog.engine import DeductiveDatabase
from repro.datalog.plan import EngineStats
from repro.datalog.terms import Atom


def render_rows(rows: Sequence[Sequence[object]]) -> str:
    """Align a list of rows into columns (Figure-2 style)."""
    if not rows:
        return "(empty)"
    width = max(len(row) for row in rows)
    padded = [list(map(str, row)) + [""] * (width - len(row)) for row in rows]
    column_widths = [
        max(len(row[column]) for row in padded) for column in range(width)
    ]
    lines = []
    for row in padded:
        cells = [row[column].ljust(column_widths[column])
                 for column in range(width)]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines)


def render_extension(database: DeductiveDatabase, pred: str,
                     sort_rows: bool = True) -> str:
    """Render one predicate's extension with the predicate name in the
    first column of the first row, like the paper's Figure 2."""
    facts = list(database.facts(pred))
    rows: List[List[object]] = [[pred] + list(fact.args) for fact in facts]
    if sort_rows:
        rows.sort(key=lambda row: tuple(str(cell) for cell in row[1:]))
    for index, row in enumerate(rows):
        if index > 0:
            row[0] = ""
    return render_rows(rows)


def render_extensions(database: DeductiveDatabase,
                      preds: Iterable[str]) -> str:
    """Render several extensions, stacked, in the given predicate order."""
    blocks = [render_extension(database, pred) for pred in preds]
    return "\n".join(block for block in blocks if block != "(empty)")


def render_stats(stats: EngineStats, slowest: int = 5) -> str:
    """Render one session's engine statistics as an aligned table.

    Same information as :meth:`EngineStats.describe`, but in the
    two-column layout of the other renderers, with the *slowest*
    most expensive constraints appended.
    """
    rows: List[List[object]] = [
        ["elapsed", f"{stats.elapsed_seconds * 1000:.2f} ms"],
        ["facts scanned", stats.facts_scanned],
        ["index lookups", stats.index_lookups],
        ["index intersections", stats.index_intersections],
        ["join tuples", stats.join_tuples],
        ["negation checks", stats.negation_checks],
        ["comparisons", stats.comparisons_evaluated],
        ["plans compiled", stats.plans_compiled],
        ["plan cache hits",
         f"{stats.plan_cache_hits} ({stats.plan_cache_hit_rate:.0%})"],
        ["compiled closures", stats.compiled_plans],
        ["intern hits", stats.intern_hits],
        ["checks run", stats.checks_run],
        ["constraints checked", stats.constraints_checked],
        ["violations found", stats.violations_found],
    ]
    if stats.maint_insert_rounds or stats.maint_deleted:
        rows.append(["maintenance rounds", stats.maint_insert_rounds])
        rows.append(["maintenance deletes",
                     f"{stats.maint_deleted} over-deleted, "
                     f"{stats.maint_rederived} re-derived"])
        rows.append(["maintenance time", f"{stats.maint_ms:.2f} ms"])
    if stats.parallel_check_workers:
        rows.append(["parallel check workers", stats.parallel_check_workers])
    if stats.delta_fallbacks:
        rows.append(["delta fallbacks", stats.delta_fallbacks])
    if stats.compiled_fallbacks:
        rows.append(["compiled fallbacks", stats.compiled_fallbacks])
    if stats.cow_relations_privatized or stats.cow_buckets_copied:
        rows.append(["cow relations privatized",
                     stats.cow_relations_privatized])
        rows.append(["cow buckets copied", stats.cow_buckets_copied])
    if stats.wal_records or stats.wal_fsyncs:
        rows.append(["wal records",
                     f"{stats.wal_records} ({stats.wal_bytes} bytes)"])
        rows.append(["wal fsyncs", stats.wal_fsyncs])
    if stats.replay_sessions or stats.replay_records:
        rows.append(["replayed sessions", stats.replay_sessions])
        rows.append(["replayed records", stats.replay_records])
        rows.append(["replay time", f"{stats.replay_seconds * 1000:.2f} ms"])
    for name, seconds in stats.slowest_constraints(slowest):
        rows.append([f"constraint {name}", f"{seconds * 1000:.2f} ms"])
    return render_rows(rows)
