"""Self-tests of the benchmark harness.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import math

import pytest

from harness import (MAX_WALL_FACTOR, REFERENCE_COST_S, HostSpeed, OpenLoop,
                     SpanLog, Window, covered_length, tail_percentile)


# -- spans -------------------------------------------------------------------------

def _tree():
    """op [0, 10]: a [1, 4] (with a.child [2, 3]), b [5, 9]; uncovered:
    [0, 1], [4, 5] and [9, 10] = 3 of 10."""
    log = SpanLog()
    root = log.record("op.session", 0.0, 10.0)
    a = log.record("layer.a", 1.0, 4.0, parent=root, op=root)
    log.record("layer.a.child", 2.0, 3.0, parent=a, op=root)
    log.record("layer.b", 5.0, 9.0, parent=root, op=root)
    return log


def test_self_time_subtracts_children():
    log = _tree()
    selfs = dict(zip((log.names[i] for i in log.name), log.self_times()))
    assert selfs == {"op.session": 3.0, "layer.a": 2.0,
                     "layer.a.child": 1.0, "layer.b": 4.0}


def test_unattributed_share_of_root_spans():
    log = _tree()
    assert log.unattributed_share(["op.session"]) == pytest.approx(0.3)
    assert log.unattributed_share(["no.such.root"]) == 0.0


def test_overlapping_children_are_counted_once():
    assert covered_length([(1, 4), (2, 6), (8, 20)], 0, 10) == 7


def test_nested_spans_share_one_operation_id():
    ticks = iter(range(100))
    log = SpanLog(clock=lambda: float(next(ticks)))
    session = log.open()
    layer_a = log.open()
    log.close(log.open(), "layer.b")
    log.close(layer_a, "layer.a")
    log.close(session, "op.session")
    log.close(log.open(), "op.session")
    ops = list(log.op)
    assert ops[0] == ops[1] == ops[2]          # b, a, first op
    assert ops[3] != ops[0]                    # the second operation
    parents = dict(zip(log.span_id, log.parent))
    by_name = {log.names[n]: i for i, n in enumerate(log.name[:3])}
    assert parents[log.span_id[by_name["layer.b"]]] == \
        log.span_id[by_name["layer.a"]]


def test_spans_are_written_as_jsonl_and_chrome(tmp_path):
    import json
    log = _tree()
    written = log.write(str(tmp_path / "t.jsonl"),
                        str(tmp_path / "t.chrome.json"), limit=3)
    assert written == 3
    lines = (tmp_path / "t.jsonl").read_text().splitlines()
    assert [json.loads(line)["name"] for line in lines] == \
        ["op.session", "layer.a", "layer.a.child"]
    chrome = json.loads((tmp_path / "t.chrome.json").read_text())
    assert len(chrome["traceEvents"]) == 3


# -- the tail rule -------------------------------------------------------------------

@pytest.mark.parametrize("count, pct", [
    (10_000, 99.9), (1000, 99.0), (999, 95.0), (200, 95.0), (100, 90.0),
    (40, 75.0), (20, 50.0)])
def test_tail_rule_needs_ten_samples_beyond(count, pct):
    samples = [float(index) for index in range(count)]
    chosen, value, n = tail_percentile(samples)
    assert (chosen, n) == (pct, count)
    beyond = sum(1 for sample in samples if sample > value)
    assert beyond >= 10


def test_tail_rule_reports_unsupported_samples():
    assert tail_percentile([1.0] * 19) == (None, None, 19)


# -- open-loop timing -----------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def test_open_loop_times_requests_from_their_due_time():
    """A 50 ms stall on request 0 makes the next requests late; their
    latency counts the wait from when each was due."""
    clock = FakeClock()
    loop = OpenLoop(0.010, start=0.0, clock=clock, sleep=clock.sleep)
    service_time = [0.050, 0.001, 0.001, 0.001, 0.001, 0.001, 0.001]
    latencies = []
    for cost in service_time:
        due = loop.wait()
        clock.now += cost                 # the request runs inline
        latencies.append(clock.now - due)
    assert latencies[0] == pytest.approx(0.050)
    # Request 1 was due at 10 ms but could only go at 50 ms.
    assert latencies[1] == pytest.approx(0.041)
    assert loop.lateness[1] == pytest.approx(0.040)
    # The backlog drains: request 6 (due at 60 ms) runs on time again.
    assert loop.lateness[6] == pytest.approx(0.0)
    assert latencies[6] == pytest.approx(0.001)
    assert loop.sent == len(service_time)


# -- host speed -----------------------------------------------------------------------

def _speed(costs):
    """A HostSpeed sampled once a second, each sample taking 0.5 s and
    finding the next of *costs* (multiples of the reference cost)."""
    clock = FakeClock()
    queue = list(costs)

    def cost():
        clock.now += 0.5
        return queue.pop(0) * REFERENCE_COST_S
    speed = HostSpeed(every_s=0.5, clock=clock, cost=cost, smooth=1)
    for _ in costs:
        speed.poll()
        clock.now += 0.5
    return speed


def test_host_speed_scales_times_to_the_reference_speed():
    """Samples end at 0.5, 1.5 and 2.5 s; the host ran at the reference
    speed, then twice as slow."""
    speed = _speed([1.0, 2.0, 2.0])
    assert speed.factor(0.25) == pytest.approx(1.0)
    assert speed.factor(1.0) == pytest.approx(2 / 3)     # between 1x and 2x
    assert speed.factor(2.0) == pytest.approx(0.5)
    # 10 ms ending at 2.0 s is 5 ms at the reference speed.
    assert speed.scale([10.0], [2.0]) == pytest.approx([5.0])


def test_one_slow_sample_does_not_move_the_factor():
    clock = FakeClock()
    costs = [1.0, 1.0, 9.0, 1.0, 1.0]

    def cost():
        return costs.pop(0) * REFERENCE_COST_S
    speed = HostSpeed(every_s=0.1, clock=clock, cost=cost, smooth=2)
    for _ in range(5):
        speed.sample()
        clock.now += 1.0
    assert [speed.factor(at) for at in (0.5, 1.5, 2.5, 3.5)] == \
        pytest.approx([1.0] * 4)


def test_reference_seconds_leave_calibration_runs_out():
    """[0, 3]: samples cover [0, 0.5], [1, 1.5], [2, 2.5]; the gaps
    [0.5, 1] and [1.5, 2] and [2.5, 3] count, scaled."""
    speed = _speed([1.0, 2.0, 2.0])
    expected = 0.5 * (2 / 3) + 0.5 * 0.5 + 0.5 * 0.5
    assert speed.reference_seconds(0.0, 3.0) == pytest.approx(expected)


def test_reference_window_runs_longer_on_a_slow_host():
    clock = FakeClock()
    speed = HostSpeed(every_s=0.1, clock=clock,
                      cost=lambda: 1.25 * REFERENCE_COST_S, smooth=1)
    while speed.within(1.0):
        speed.poll()
        clock.now += 0.01
    # A fifth slower: one reference second takes 1.25 s of wall.
    assert clock.now == pytest.approx(1.25, abs=0.02)
    assert speed.elapsed() == pytest.approx(1.0, abs=0.01)


def test_reference_window_is_capped_in_wall_time():
    clock = FakeClock()
    speed = HostSpeed(every_s=0.1, clock=clock,
                      cost=lambda: 3.0 * REFERENCE_COST_S, smooth=1)
    while speed.within(1.0):
        speed.poll()
        clock.now += 0.01
    assert clock.now == pytest.approx(MAX_WALL_FACTOR, abs=0.02)


def test_closed_loop_rate_is_per_reference_second():
    speed = _speed([2.0, 2.0])
    window = Window(started=0.0, seconds=2.0, op_ms=[1.0] * 10,
                    op_end=[0.6 + i * 0.04 for i in range(10)],
                    session_ms=[], session_end=[], speed=speed)
    # 1 s outside calibration runs, at half the reference speed.
    assert window.rate() == pytest.approx(10 / 0.5)
    window.open_loop = True
    assert window.rate() == pytest.approx(10 / 2.0)


# -- planted wrong outputs raise the failed share ---------------------------------------

def test_planted_wrong_read_is_counted(tmp_path, monkeypatch):
    import workload_serve
    monkeypatch.setattr(workload_serve, "AUDIT_EVERY", 2)
    world = workload_serve.setup(seed=5, workdir=str(tmp_path))
    try:
        workload_serve.run(world, seconds=0.6)
        workload_serve.verify(world)
        attempted, failed = workload_serve.tally(world)
        assert attempted > 0 and failed == 0
        reads = world.windows[-1]
        audited = [index for index in reads.audited
                   if reads.epoch[index] % 2 == 0]
        assert audited, "the window audited no read"
        types, result = reads.audited[audited[0]]
        reads.audited[audited[0]] = (
            types, (("NotAType", (), (), False),) + result[1:])
        stale = next(index for index in range(reads.count)
                     if index != audited[0])
        reads.epoch[stale] = reads.min_epoch[stale] - 1
        workload_serve.verify(world)
        assert workload_serve.tally(world)[1] == 2
    finally:
        workload_serve.close(world)


@pytest.fixture
def small_objects(monkeypatch):
    import workload_objects
    for name, value in (("PERSONS", 400), ("CITIES", 100), ("CARS", 100),
                        ("CHANGE_EVERY", 300), ("DRAIN_EVERY", 100),
                        ("DRAIN_BATCH", 50), ("WARMUP_OPS", 600)):
        monkeypatch.setattr(workload_objects, name, value)
    return workload_objects


def test_planted_wrong_slot_is_counted(small_objects, tmp_path):
    world = small_objects.setup(seed=5, workdir=str(tmp_path))
    small_objects.run(world, seconds=0.3)
    small_objects.verify(world)
    assert small_objects.tally(world)[1] == 0
    assert world.checks["debt_zero_after_drain"]
    person = world.persons.objects[-1]
    person.slots["age"] = world.age[person.oid] + 1
    small_objects.verify(world)
    assert not world.checks["ages_match_shadow"]
    assert small_objects.tally(world)[1] >= 1


def test_planted_wrong_value_fails_the_read(small_objects, tmp_path):
    world = small_objects.setup(seed=6, workdir=str(tmp_path))
    for person in world.persons.objects[:world.persons.hot]:
        person.slots["age"] += 1             # the shadow keeps the truth
    small_objects.run_ops(world, ops=500)
    assert world.op_failures > 0


# -- wrappers ------------------------------------------------------------------------------

def test_wrappers_call_through_reraise_and_uninstall():
    from layers import LayerTracer
    from repro.control.session import EvolutionSession
    from repro.errors import InconsistentSchemaError
    from repro.datalog.terms import Atom
    from repro.gom.ids import Id
    from repro.manager import SchemaManager

    original = EvolutionSession.commit
    tracer = LayerTracer()
    tracer.install()
    try:
        assert EvolutionSession.commit is not original
        manager = SchemaManager()
        manager.define("schema S is type T is [ x : int; ] end type T; "
                       "end schema S;")
        session = manager.begin_session()
        tid = manager.model.type_id("T")
        session.add(Atom("Attr", (tid, "ghost", Id("tid", 999))))
        with pytest.raises(InconsistentSchemaError):
            session.commit()
        session.rollback()
    finally:
        tracer.uninstall()
    assert EvolutionSession.commit is original
    names = {tracer.log.names[index] for index in tracer.log.name}
    assert {"analyzer.parse", "analyzer.translate", "control.commit",
            "control.check", "checker.check_delta",
            "control.rollback"} <= names
    # define(): one check at commit; the refused commit left no row, the
    # rollback closed the second session after its one check.
    assert [row["checks"] for row in tracer.sessions] == [1, 1]
    assert [row["outcome"] for row in tracer.sessions] == \
        ["commit", "rollback"]
    # The checker spans carry the violations they found.
    assert any(not math.isnan(value) for value in tracer.log.value)
