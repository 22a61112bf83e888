"""Tests for the metrics & health subsystem (repro.obs.metrics et al).

Covers the labeled registry (identity, ordering, kind conflicts), the
Prometheus and JSONL exporters, the session's virtual-time scrape, the
SLO tracker, the flight recorder with its postmortems, and the end-to-end
MetricsSession guarantees: artefacts are byte-identical across
same-seed runs, an attached session never perturbs the simulation's
results, and it composes with a trace session and the fuzz harness in
any attach and finish order.
"""

import itertools
import json

import pytest

from repro.api import PATreeSession, ShardedSession
from repro.errors import RetryExhaustedError
from repro.fuzz.harness import NoProgressWatchdog, _tap_completions
from repro.fuzz.hooks import FuzzConfig, HookBinder, ScheduleExplorer
from repro.obs import (
    DEFAULT_TARGETS_US,
    FlightRecorder,
    MetricError,
    MetricRegistry,
    MetricsSession,
    NULL_TRACER,
    SloTracker,
    TraceSession,
    prometheus_text,
    write_jsonl,
)
from repro.sim.clock import Clock, usec
from repro.sim.engine import Engine
from repro.workloads import YcsbWorkload
from repro.sim.rng import RngRegistry


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------


def test_registry_identity_is_name_plus_labels():
    registry = MetricRegistry()
    a = registry.counter("reads_total", {"shard": "0"})
    b = registry.counter("reads_total", {"shard": "1"})
    again = registry.counter("reads_total", {"shard": "0"})
    assert a is again and a is not b
    for _ in range(3):
        a.inc()
    assert registry.get("reads_total", {"shard": "0"}).read() == 3
    assert registry.get("reads_total", {"shard": "1"}).read() == 0


def test_registry_label_order_does_not_split_identity():
    registry = MetricRegistry()
    a = registry.gauge("depth_count", {"a": 1, "b": 2})
    b = registry.gauge("depth_count", {"b": 2, "a": 1})
    assert a is b
    assert a.flat == 'depth_count{a="1",b="2"}'


def test_registry_iterates_in_registration_order():
    registry = MetricRegistry()
    registry.counter("z_total")
    registry.gauge("a_count")
    registry.counter("m_total")
    assert [m.name for m in registry] == ["z_total", "a_count", "m_total"]


def test_registry_rejects_kind_conflicts_and_bad_names():
    registry = MetricRegistry()
    registry.counter("reads_total")
    with pytest.raises(MetricError):
        registry.gauge("reads_total")
    with pytest.raises(MetricError):
        registry.counter("BadName_total")
    with pytest.raises(MetricError):
        registry.counter("reads")  # no unit suffix


def test_callback_counters_read_live_values():
    registry = MetricRegistry()
    state = {"n": 0}
    metric = registry.counter("events_total", fn=lambda: state["n"])
    assert metric.read() == 0
    state["n"] = 7
    assert metric.read() == 7
    assert registry.scalars() == {"events_total": 7}


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------


def test_prometheus_text_shape():
    registry = MetricRegistry()
    shard0 = registry.counter("reads_total", {"shard": "0"}, help="device reads")
    shard1 = registry.counter("reads_total", {"shard": "1"})
    for counter, reads in ((shard0, 4), (shard1, 2)):
        for _ in range(reads):
            counter.inc()
    registry.gauge("depth_count").set(9)
    text = prometheus_text(registry)
    lines = text.splitlines()
    assert lines[0] == "# HELP reads_total device reads"
    assert lines[1] == "# TYPE reads_total counter"
    assert 'reads_total{shard="0"} 4' in lines
    assert 'reads_total{shard="1"} 2' in lines
    # one TYPE header per name, even with two label sets
    assert sum(1 for l in lines if l.startswith("# TYPE reads_total")) == 1
    assert "depth_count 9" in lines


def test_prometheus_histogram_is_cumulative():
    registry = MetricRegistry()
    hist = registry.histogram("lat_ns")
    for value in (500, 5_000, 50_000):
        hist.record(value)
    lines = prometheus_text(registry).splitlines()
    assert 'lat_ns_bucket{le="1.0"} 1' in lines
    assert 'lat_ns_bucket{le="2.0"} 1' in lines
    assert 'lat_ns_bucket{le="10.0"} 2' in lines
    assert 'lat_ns_bucket{le="50.0"} 3' in lines
    assert 'lat_ns_bucket{le="5000000.0"} 3' in lines
    assert 'lat_ns_bucket{le="+Inf"} 3' in lines
    assert "lat_ns_sum 55.5" in lines
    assert "lat_ns_count 3" in lines


def test_scraper_jsonl_round_trips(tmp_path):
    engine = Engine(seed=1)
    session = MetricsSession(engine, scrape_interval_ns=1_000)
    session.registry.gauge("depth_count", fn=lambda: 4)
    ticks = session.registry.counter("ticks_total")
    ticks.inc()
    ticks.inc()
    session.start()
    engine.schedule(2_500, session.finish)
    engine.run()
    path, _prom = session.write_artifacts(str(tmp_path / "m"))
    rows = [json.loads(line) for line in open(path)]
    # one row per scrape tick, keys in registry order
    assert rows == [
        {"t_ns": 1_000, "metrics": {"depth_count": 4, "ticks_total": 2}},
        {"t_ns": 2_000, "metrics": {"depth_count": 4, "ticks_total": 2}},
    ]
    assert [list(row["metrics"]) for row in rows] == [
        ["depth_count", "ticks_total"]
    ] * 2
    assert session.bench_summary()["scrape"] == {
        "interval_us": 1.0, "samples": 2,
    }


# ----------------------------------------------------------------------
# SLO tracker
# ----------------------------------------------------------------------


def test_slo_tracker_counts_violations_per_class():
    registry = MetricRegistry()
    slo = SloTracker(registry)
    target_ns = usec(DEFAULT_TARGETS_US["search"])
    slo.observe("search", target_ns - 1)
    slo.observe("search", target_ns + 1)
    slo.observe("range", usec(100.0))  # well under the range target
    (search_row, range_row) = slo.table()
    assert search_row["op"] == "search" and search_row["count"] == 2
    assert search_row["violations"] == 1
    assert range_row["violations"] == 0
    assert slo.total_violations() == 1
    # the registry view agrees with the table view
    assert registry.get(
        "slo_violations_total", {"op": "search"}
    ).read() == 1


def test_slo_tracker_shard_labels_split_cells():
    slo = SloTracker(MetricRegistry())
    slo.observe("search", usec(1_000.0), shard=0)
    slo.observe("search", usec(1.0), shard=1)
    rows = {row["shard"]: row for row in slo.table()}
    assert rows["0"]["violations"] == 1
    assert rows["1"]["violations"] == 0


def test_slo_tracker_custom_targets():
    slo = SloTracker(MetricRegistry(), targets_us={"search": 1.0})
    slo.observe("search", usec(2.0))
    assert slo.total_violations() == 1
    # unknown classes fall back to the default target
    assert slo.target_us("compact") == 1_000.0


# ----------------------------------------------------------------------
# flight recorder
# ----------------------------------------------------------------------


class _Cmd:
    def __init__(self, opcode="read", lba=7, retries=0):
        self.opcode = opcode
        self.lba = lba
        self.retries = retries


def test_flight_recorder_ring_is_bounded():
    clock = Clock()
    flight = FlightRecorder(clock, capacity=3)
    for i in range(5):
        clock.advance_to(i * 100)
        flight.record_completion(_Cmd(lba=i), ok=True)
    events = flight.events()
    assert len(events) == 3
    assert [e["lba"] for e in events] == [2, 3, 4]  # oldest dropped
    summary = flight.summary()
    assert summary["recorded_total"] == 5
    assert summary["in_ring"] == 3
    assert summary["by_kind"] == {"completion": 3}


def test_flight_recorder_postmortem_names_the_failure():
    clock = Clock()
    flight = FlightRecorder(clock, capacity=8)
    flight.record_completion(_Cmd(lba=42), ok=False, status="media_error")
    error = RetryExhaustedError(
        "read of lba 42 failed", status="media_error", opcode="read", lba=42
    )
    flight.record_error(error)
    report = flight.postmortem(error, context={"op_seq": 5})
    assert report["error"] == "RetryExhaustedError"
    assert report["lba"] == 42 and report["op"] == "read"
    assert report["context"] == {"op_seq": 5}
    assert report["recent_events"][-1]["kind"] == "error"


# ----------------------------------------------------------------------
# MetricsSession end to end
# ----------------------------------------------------------------------

_FAULTS = {"read_error_rate": 0.3, "poison_ranges": ((40, 60),)}
_RETRY = {"max_retries": 2}


def _workload(seed, n_ops=250):
    return YcsbWorkload(
        2_000, n_ops, mix="default", rng=RngRegistry(seed).stream("workload")
    )


def _run_session(seed=3, metrics=True, **config):
    workload = _workload(seed)
    with PATreeSession(seed=seed, **config) as session:
        recorder = session.attach_metrics() if metrics else None
        session.bulk_load(workload.preload_items())
        if recorder is not None:
            recorder.start()
        session.execute(workload.operations())
        if recorder is not None:
            recorder.finish()
        stats = session.stats()
    return stats, recorder


def test_metrics_session_populates_every_layer():
    _stats, recorder = _run_session()
    scalars = recorder.registry.scalars()
    for name in (
        "device_reads_total",
        "driver_retries_total",
        "qpair_completed_total",
        "latch_grants_total",
        "buffer_hits_total",
        "sched_ready_ops",
        "engine_completed_total",
        "engine_probes_total",
    ):
        assert name in scalars, name
    assert scalars["engine_completed_total"] > 0
    assert recorder.slo.table()  # at least one op class observed
    assert recorder.flight.summary()["recorded_total"] > 0
    assert recorder.sampler.samples


def test_weak_session_metrics_register_the_write_back_buffer():
    stats, recorder = _run_session(persistence="weak", buffer_pages=256)
    scalars = recorder.registry.scalars()
    for name in ("buffer_dirty_pages", "buffer_flushes_total"):
        assert name in scalars, name
    assert scalars["buffer_write_absorbs_total"] > 0
    assert scalars["buffer_hits_total"] > 0
    assert 0 < scalars["buffer_hit_ratio"] <= 1
    assert stats["completed"] > 0


def test_metrics_session_does_not_perturb_results():
    bare, _ = _run_session(metrics=False)
    observed, _ = _run_session(metrics=True)
    assert bare == observed


def test_metrics_session_restores_hooks_on_finish():
    workload = _workload(3)
    with PATreeSession(seed=3) as session:
        device = session.env.device
        recorder = session.attach_metrics()
        session.bulk_load(workload.preload_items())
        recorder.start()
        assert len(device.on_complete) == 1
        session.execute(workload.operations())
        recorder.finish()
        recorder.finish()  # idempotent
        assert device.on_complete == ()
        assert session.pa_engine.on_op_complete == ()


def test_fault_run_captures_postmortems():
    _stats, recorder = _run_session(faults=_FAULTS, retry=_RETRY)
    assert recorder.postmortems
    first = recorder.postmortems[0]
    assert first["error"] in ("RetryExhaustedError", "IoError")
    assert first["lba"] is not None and first["op"] is not None
    assert recorder.registry.scalars()["fault_media_errors_total"] > 0


def test_metrics_artifacts_byte_identical_across_same_seed_runs(tmp_path):
    paths = []
    for run in ("a", "b"):
        _stats, recorder = _run_session(faults=_FAULTS, retry=_RETRY)
        prefix = str(tmp_path / run)
        paths.append(recorder.write_artifacts(prefix))
    for first, second in zip(*paths):
        assert open(first, "rb").read() == open(second, "rb").read()
    assert len(paths[0]) == 3  # jsonl + prom + postmortem


def test_sharded_session_metrics_carry_shard_labels():
    workload = _workload(5)
    with ShardedSession(seed=5, shards=2) as session:
        recorder = session.attach_metrics()
        session.bulk_load(workload.preload_items())
        recorder.start()
        session.execute(workload.operations())
        recorder.finish()
    scalars = recorder.registry.scalars()
    assert 'engine_completed_total{shard="0"}' in scalars
    assert 'engine_completed_total{shard="1"}' in scalars
    assert "router_user_completed_total" in scalars
    total = sum(
        scalars['engine_completed_total{shard="%d"}' % i] for i in (0, 1)
    )
    assert total == scalars["router_user_completed_total"]


def test_health_report_mentions_the_three_sections():
    _stats, recorder = _run_session()
    text = recorder.health_report()
    assert "== health: metrics ==" in text
    assert "== health: SLO ==" in text
    assert "== health: flight recorder ==" in text


_SLOT_PREFIXES = ("on_", "perturb_", "pick_", "preempt_", "wakeup_")


def _hook_slots(session):
    """Every hook slot of a PATreeSession's stack, as it stands."""
    worker = session.pa_engine
    owners = (session.env.engine, session.env.os, session.env.device,
              worker.backend.driver, session.tree, worker)
    return [
        (type(owner).__name__, name, value)
        for owner in owners
        for name, value in sorted(vars(owner).items())
        if name.startswith(_SLOT_PREFIXES)
    ]


def _compose(tmp_path, attach_order, finish_order):
    """One run watched by a trace session, a metrics session and the
    fuzz harness's binder + watchdog, attached and finished in the given
    orders; returns everything the three recorded."""
    workload = _workload(3)
    with PATreeSession(seed=3, buffer_pages=0, scheduler="naive") as session:
        env, worker = session.env, session.pa_engine
        session.bulk_load(workload.preload_items())
        before = _hook_slots(session)
        decider = ScheduleExplorer(
            FuzzConfig(), RngRegistry(3).stream("fuzz:schedule")
        )
        binder = HookBinder(decider)
        watchdog = NoProgressWatchdog(env.engine, budget=100_000)
        fuzz_flight = FlightRecorder(env.engine.clock, capacity=128)
        made = {}

        def attach(party):
            if party == "trace":
                made[party] = (
                    TraceSession(env.engine)
                    .attach_device(env.device)
                    .attach_simos(env.os)
                    .attach_worker(worker)
                )
            elif party == "metrics":
                made[party] = session.attach_metrics()
            else:
                watchdog.bind()
                made[party] = _tap_completions(
                    [env.device], fuzz_flight, watchdog
                )
                binder.bind(simos=env.os, devices=[env.device])

        def finish(party):
            if party == "fuzz":
                binder.unbind()
                watchdog.unbind()
                made[party]()
            else:
                made[party].finish()

        for party in attach_order:
            attach(party)
        for party in attach_order:
            if party != "fuzz":
                made[party].start()
        session.execute(workload.operations())
        for party in finish_order:
            finish(party)
        assert _hook_slots(session) == before, (attach_order, finish_order)
        assert worker.tracer is NULL_TRACER

    trace, metrics = made["trace"], made["metrics"]
    prefix = str(tmp_path / "-".join(attach_order + finish_order))
    paths = (write_jsonl(trace.tracer, prefix + ".trace.jsonl"),)
    paths += metrics.write_artifacts(prefix)
    artifacts = {path[len(prefix):]: open(path, "rb").read() for path in paths}
    artifacts["slo"] = metrics.slo.snapshot()
    artifacts["flight"] = metrics.flight.summary()
    artifacts["fuzz_flight"] = fuzz_flight.summary()
    artifacts["decisions"] = list(decider.trace)
    return artifacts


def test_trace_and_metrics_sessions_coexist(tmp_path):
    # trace + metrics + fuzz on one run, in all six attach orders and
    # both finish orders: every observer is fed, what each records does
    # not depend on who else listens, and every slot ends as it began
    runs = {}
    for attach_order in itertools.permutations(("trace", "metrics", "fuzz")):
        for finish_order in (attach_order, attach_order[::-1]):
            runs[attach_order, finish_order] = _compose(
                tmp_path, attach_order, finish_order
            )
    reference = next(iter(runs.values()))
    assert sorted(reference) == [
        ".metrics.jsonl", ".prom", ".trace.jsonl",
        "decisions", "flight", "fuzz_flight", "slo",
    ]
    assert reference[".trace.jsonl"] and reference[".metrics.jsonl"]
    assert reference["slo"]["rows"] and reference["decisions"]
    assert reference["flight"]["by_kind"]["completion"] > 0
    assert reference["fuzz_flight"]["recorded_total"] > 0
    for orders, run in runs.items():
        assert run == reference, orders


def test_a_finished_trace_session_stops_recording():
    # finish() really detaches: the worker loses the session's tracer
    # and op callback, while a metrics session attached alongside keeps
    # its own device tap
    workload = _workload(3, n_ops=200)
    operations = list(workload.operations())
    with PATreeSession(seed=3, buffer_pages=0, scheduler="naive") as session:
        worker = session.pa_engine
        metrics = session.attach_metrics(flight_capacity=10_000)
        trace = TraceSession(session.env.engine)
        trace.attach_device(session.env.device).attach_worker(worker)
        session.bulk_load(workload.preload_items())
        trace.start()
        metrics.start()
        session.execute(operations[:100])
        trace.finish()
        trace.finish()  # idempotent
        counts = {kind: len(h) for kind, h in trace.op_latency.items()}
        events = len(trace.tracer.events)
        completions = metrics.flight.summary()["by_kind"]["completion"]
        session.execute(operations[100:])
        metrics.finish()
    assert sum(counts.values()) == 100
    assert {k: len(h) for k, h in trace.op_latency.items()} == counts
    assert len(trace.tracer.events) == events
    assert metrics.flight.summary()["by_kind"]["completion"] > completions
