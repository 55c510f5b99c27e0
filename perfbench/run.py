"""The repository benchmark: ``evolve`` / ``serve`` / ``objects`` workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload evolve --seed 1 --seconds 25 --trace 0

Sets the workload up several times (the median is ``setup_s``), runs
one measured window, checks the program's outputs, and prints a run
header, a table of every metric with its unit, and — as the last line
of standard output — one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Times are reported at a reference host
speed (see :class:`harness.HostSpeed`); the table also gives them as
measured.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs half the window untraced and half with the
layer wrappers installed and reports the per-layer metrics, writing the
spans to ``perfbench/out/`` as JSONL and as a Chrome trace.

See ``perfbench/README.md`` for the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5

#: What the generic end-to-end metrics are called on each workload.
ALIASES = {
    "evolve": {"throughput_per_s": "sessions_per_s",
               "op_ms_p50": "session_ms_p50 (all sessions)",
               "op_ms_p99": "session_ms_p99 (all sessions)",
               "session_ms_p50": "session_ms_p50 (primitive sessions)"},
    "serve": {"throughput_per_s": "reads_per_s",
              "op_ms_p50": "read_ms_p50",
              "op_ms_p99": "read_ms_p99",
              "session_ms_p50": "session_ms_p50 (writer sessions)"},
    "objects": {"throughput_per_s": "object_ops_per_s",
                "op_ms_p50": "object_op_us_p50 / 1000",
                "op_ms_p99": "object_op_us_p99 / 1000",
                "session_ms_p50": "session_ms_p50 (schema changes)"},
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p99": "ms",
    "session_ms_p50": "ms",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(ALIASES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_workload(name: str):
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"perfbench: no program sources under {SRC}")
    sys.path.insert(0, SRC)
    import importlib
    return importlib.import_module(f"workload_{name}")


def end_to_end(window, setup_s: float, rss_mb: float) -> dict:
    from harness import sliced_percentile
    op_ms = window.op_ms_ref()
    return {
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "throughput_per_s": window.rate(),
        "op_ms_p50": sliced_percentile(op_ms, 50.0),
        "op_ms_p99": sliced_percentile(op_ms, 99.0),
        "session_ms_p50": sliced_percentile(window.session_ms_ref(), 50.0),
    }


#: Host-speed samples taken just before and just after each set-up.
SETUP_SPEED_SAMPLES = 5


def timed_setup(module, seed: int, workdir: str):
    """(world, seconds at the reference speed) of one set-up, the host's
    speed sampled just before and just after it."""
    from harness import HostSpeed
    speed = HostSpeed(smooth=SETUP_SPEED_SAMPLES)
    for _ in range(SETUP_SPEED_SAMPLES):
        speed.sample()
    started = time.perf_counter()
    world = module.setup(seed, workdir)
    ended = time.perf_counter()
    for _ in range(SETUP_SPEED_SAMPLES):
        speed.sample()
    return world, speed.reference_seconds(started, ended)


def traced_run(module, world, seconds: float, trace_name: str) -> dict:
    """Half the window untraced, half traced: the per-layer metrics."""
    from harness import mean, percentile
    from layers import LayerTracer, layer_metrics
    plain = module.run(world, seconds / 2.0, log=None)
    tracer = LayerTracer()
    tracer.install()
    try:
        traced = module.run(world, seconds / 2.0, log=tracer.log)
    finally:
        tracer.uninstall()
    module.verify(world)
    extra = {
        "storage.recovery_s": getattr(world, "recovery_s", 0.0),
        "migration.debt_max": float(max(getattr(world, "debt_samples", [])
                                        or [0])),
        "harness.tracing_overhead": (mean(traced.op_ms_ref())
                                     / mean(plain.op_ms_ref())),
        "harness.generator_late_ms_p99": (
            percentile(traced.late_ms, 99.0) if traced.late_ms else 0.0),
    }
    metrics = layer_metrics(tracer, extra)
    written = tracer.log.write(os.path.join(OUT, trace_name + ".jsonl"),
                               os.path.join(OUT, trace_name + ".chrome.json"))
    print(f"trace: {len(tracer.log)} spans, first {written} written to "
          f"perfbench/out/{trace_name}.{{jsonl,chrome.json}}")
    return metrics


def describe(workload: str, window, world, metrics: dict) -> None:
    """The human-readable table: every metric by name with its unit."""
    from harness import percentile, summarize
    aliases = ALIASES[workload]
    for name, value in metrics.items():
        unit = END_TO_END_UNITS[name]
        alias = aliases.get(name, name)
        print(f"  {name:<18} {value:>14.4f} {unit:<4} {alias}")
    costs = window.speed.cost
    print(f"  host speed: {len(costs)} samples, reference loop "
          f"{min(costs) * 1000:.4f}-{max(costs) * 1000:.4f} ms "
          f"(median {statistics.median(costs) * 1000:.4f}); as measured:")
    for label, samples in (("ops", window.op_ms),
                           ("sessions", window.session_ms)):
        summary = summarize(samples)
        tail = ("unsupported" if summary["tail_pct"] is None
                else f"p{summary['tail_pct']:g}={summary['tail']:.4f} ms")
        print(f"  {label}: n={summary['n']} p50={summary['p50']:.4f} ms "
              f"p99={summary['p99']:.4f} ms; supported tail: {tail}")
    if getattr(world, "recovery_s", 0.0):
        print(f"  recovery_s {world.recovery_s:.4f} s")
    wal = getattr(world, "wal_bytes", None)
    if wal:
        print(f"  wal_bytes_per_session {statistics.mean(wal):.1f} bytes")
    if window.late_ms:
        print(f"  generator lateness: p50={statistics.median(window.late_ms):.4f}"
              f" ms p99={percentile(window.late_ms, 99.0):.4f} ms")


def main(argv=None) -> int:
    args = parse_args(argv)
    module = load_workload(args.workload)
    from harness import peak_rss_mb, run_header
    from layers import PER_LAYER_UNITS

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    world = None
    try:
        setups = []
        for _ in range(SETUPS):
            if world is not None:
                module.close(world)
                world = None
            world, seconds = timed_setup(module, args.seed, workdir)
            setups.append(seconds)
        setup_s = statistics.median(setups)
        # As a long-running service does after warm-up: full collections
        # then walk what the measured window allocates, not the set-up.
        gc.collect()
        gc.freeze()
        header = run_header(args.workload, args.seed, args.seconds,
                            bool(args.trace), module.CONFIG)
        header["setup_runs_s"] = setups
        print("header: " + json.dumps(header, sort_keys=True))

        if args.trace:
            values = traced_run(module, world, args.seconds,
                                f"trace-{args.workload}-seed{args.seed}")
            units = PER_LAYER_UNITS
            for name, unit in units.items():
                print(f"  {name:<40} {values[name]:>14.4f} {unit}")
        else:
            window = module.run(world, args.seconds, log=None)
            # The checks below reopen the directory beside the live
            # manager; the peak is the workload's, taken before them.
            rss_mb = peak_rss_mb()
            module.verify(world)
            values = end_to_end(window, setup_s, rss_mb)
            units = END_TO_END_UNITS
            describe(args.workload, window, world, values)
        attempted, failed = module.tally(world)
        checks = getattr(world, "checks", {})
        for name, ok in sorted(checks.items()):
            print(f"  check {name}: {'ok' if ok else 'FAILED'}")
        print(f"  failed_share {failed / attempted:.6f} "
              f"({failed} of {attempted})")
    finally:
        if world is not None:
            module.close(world)
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
