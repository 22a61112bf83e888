"""Tests for the observability pipeline (repro.obs).

Covers the tracer primitives, exporters, the trace session's sampled
probes, and the two end-to-end guarantees the pipeline makes: traced
output is byte-identical across same-seed runs, and leaving tracing
disabled does not perturb the simulation at all.
"""

import json

import pytest

from repro.bench.runner import WorkloadSpec, run_pa
from repro.nvme.device import fast_test_profile
from repro.obs import (
    NULL_TRACER,
    Histogram,
    TraceSession,
    Tracer,
    chrome_trace_events,
    trace_summary,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.tracer import EV_COUNTER, EV_INSTANT
from repro.sim.clock import Clock
from repro.sim.engine import Engine
from repro.sim.hooks import subscribe


def _small_spec():
    return WorkloadSpec(kind="ycsb", n_keys=2_000, n_ops=300, mix="default")


# ----------------------------------------------------------------------
# tracer primitives
# ----------------------------------------------------------------------


def test_tracer_slice_records_duration():
    clock = Clock()
    tracer = Tracer(clock)
    span = tracer.begin("worker", "probe", cat="w", args={"n": 1})
    clock.advance_to(5_000)
    tracer.end(span, args={"done": True})
    assert len(tracer.events) == 1
    kind, track, name, cat, start_ns, end_ns, args = tracer.events[0]
    assert (track, name, cat) == ("worker", "probe", "w")
    assert (start_ns, end_ns) == (0, 5_000)
    assert args == {"n": 1, "done": True}


def test_tracer_track_ids_follow_registration_order():
    tracer = Tracer(Clock())
    assert tracer.track_id("b") == 0
    assert tracer.track_id("a") == 1
    assert tracer.track_id("b") == 0  # stable on re-lookup


def test_tracer_drops_beyond_max_events():
    clock = Clock()
    tracer = Tracer(clock, max_events=2)
    for i in range(5):
        tracer.instant("t", "e%d" % i)
    assert len(tracer.events) == 2
    assert tracer.dropped == 3


def test_null_tracer_is_inert():
    span = NULL_TRACER.begin("t", "x")
    NULL_TRACER.end(span)
    NULL_TRACER.instant("t", "x")
    NULL_TRACER.async_begin("c", 1, "x")
    NULL_TRACER.async_end("c", 1, "x")
    NULL_TRACER.counter("t", "q", {"v": 1})
    assert NULL_TRACER.enabled is False
    assert not NULL_TRACER.events


# ----------------------------------------------------------------------
# histograms and sampled probes
# ----------------------------------------------------------------------


def test_histogram_snapshot_quantiles():
    histogram = Histogram()
    for us in (1, 2, 5, 10, 100):
        histogram.record(us * 1_000)
    snap = histogram.snapshot()
    assert snap["count"] == 5
    assert snap["min_us"] == pytest.approx(1.0)
    assert snap["max_us"] == pytest.approx(100.0)
    assert snap["p50_us"] >= snap["min_us"]
    assert snap["p999_us"] <= 200.0  # within the bucket above 100us


def test_histogram_overflow_bucket():
    histogram = Histogram([10, 20])
    histogram.record(5)
    histogram.record(1_000_000)
    snap = histogram.snapshot()
    overflow = [b for b in snap["buckets"] if b["le_us"] == "inf"]
    assert overflow and overflow[0]["count"] == 1


def test_sampler_collects_rows_in_virtual_time():
    engine = Engine(seed=7)
    session = TraceSession(engine, sample_interval_ns=1_000)
    values = iter(range(100))
    session._probes.append(("depth", lambda: next(values)))
    session.start()
    engine.schedule(5_500, session.finish)
    engine.run()
    times = [t for t, _row in session.sampler.samples]
    assert times == [1_000, 2_000, 3_000, 4_000, 5_000]
    summary = session.probe_summary()["depth"]
    assert summary["min"] == 0 and summary["max"] == 4
    assert summary["mean"] == 2 and summary["last"] == 4
    # every row is also a counter event on the trace's metrics track
    counters = [e for e in session.tracer.events if e[0] == EV_COUNTER]
    assert [(e[1], e[2], e[3]) for e in counters] == [
        ("metrics", "samples", t) for t in times
    ]
    assert [e[4] for e in counters] == [row for _t, row in session.sampler.samples]


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------


def _toy_tracer():
    clock = Clock()
    tracer = Tracer(clock)
    span = tracer.begin("worker", "step", cat="w")
    tracer.async_begin("op", 1, "search", args={"key": 3})
    clock.advance_to(2_000)
    tracer.async_instant("op", 1, "io_wait")
    tracer.counter("metrics", "queue", {"depth": 4})
    clock.advance_to(4_000)
    tracer.async_end("op", 1, "search")
    tracer.end(span)
    tracer.instant("worker", "shutdown")
    return tracer


def test_chrome_export_shapes_and_metadata_first():
    tracer = _toy_tracer()
    events = chrome_trace_events(tracer)
    phases = [e["ph"] for e in events]
    # thread_name metadata precedes everything referencing the tids
    meta_count = phases.count("M")
    assert meta_count >= 2
    assert all(ph == "M" for ph in phases[:meta_count])
    assert {"X", "i", "b", "n", "e", "C"} <= set(phases)
    slice_event = next(e for e in events if e["ph"] == "X")
    assert slice_event["ts"] == 0 and slice_event["dur"] == pytest.approx(4.0)


def test_chrome_trace_round_trips_through_json(tmp_path):
    tracer = _toy_tracer()
    path = write_chrome_trace(tracer, str(tmp_path / "t.trace.json"))
    with open(path) as handle:
        doc = json.loads(handle.read())
    assert doc["otherData"]["clock"] == "virtual"
    assert doc["traceEvents"] == chrome_trace_events(tracer)


def test_jsonl_round_trips_line_by_line(tmp_path):
    tracer = _toy_tracer()
    path = write_jsonl(tracer, str(tmp_path / "t.trace.jsonl"))
    with open(path) as handle:
        rows = [json.loads(line) for line in handle]
    assert len(rows) == len(tracer.events)
    assert all("ev" in row for row in rows)


def test_trace_summary_mentions_top_spans():
    text = trace_summary(_toy_tracer())
    assert "Top spans" in text
    assert "worker/step" in text
    assert "op/search" in text


# ----------------------------------------------------------------------
# end-to-end guarantees
# ----------------------------------------------------------------------


def test_traced_artifacts_identical_across_same_seed_runs(tmp_path):
    spec = _small_spec()
    paths = []
    for run in ("a", "b"):
        result = run_pa(spec, seed=11, trace=True)
        session = result["trace_session"]
        paths.append(session.write_artifacts(str(tmp_path / run)))
    for first, second in zip(*paths):
        with open(first, "rb") as fh, open(second, "rb") as sh:
            assert fh.read() == sh.read()


def test_span_ordering_deterministic_across_same_seed_runs():
    spec = _small_spec()
    first = run_pa(spec, seed=3, trace=True)["trace_session"]
    second = run_pa(spec, seed=3, trace=True)["trace_session"]
    assert first.tracer.events == second.tracer.events
    assert first.dispatches == second.dispatches
    assert first.bench_summary() == second.bench_summary()


def test_disabled_tracing_leaves_run_untouched():
    spec = _small_spec()
    traced = run_pa(spec, seed=5, trace=True)
    untraced = run_pa(spec, seed=5)
    session = traced.pop("trace_session")
    # every reported quantity — throughput, latencies, device and engine
    # event counts — must match the untraced run exactly
    assert traced == untraced
    assert "trace_session" not in untraced
    assert 0 < session.dispatches <= session.engine.dispatched


def test_dispatch_hook_does_not_change_event_counts():
    def drive(engine):
        def ping(depth):
            if depth:
                engine.schedule(10, lambda: ping(depth - 1))

        engine.schedule(0, lambda: ping(20))
        engine.schedule(5, lambda: None)
        engine.run()

    hooked = Engine(seed=9)
    seen = []
    subscribe(hooked, "on_dispatch", seen.append)
    drive(hooked)
    bare = Engine(seed=9)
    drive(bare)
    assert hooked.dispatched == bare.dispatched
    assert len(seen) == hooked.dispatched
    assert hooked.now == bare.now


def test_hooks_detached_after_finish():
    result = run_pa(_small_spec(), seed=5, trace=True)
    session = result["trace_session"]
    (worker,) = session._workers
    backend = worker.backend
    assert session.engine.on_dispatch == ()
    assert backend.device.on_submit == ()
    assert backend.device.on_complete == ()
    assert backend.driver.on_retry == ()
    assert worker.on_op_complete == ()
    assert worker.tracer is NULL_TRACER
    assert session._simos.on_thread_state == ()


def test_traced_session_populates_histograms_and_probes():
    result = run_pa(_small_spec(), seed=5, trace=True)
    session = result["trace_session"]
    summary = session.bench_summary()
    assert summary["io_latency"]["read"]["count"] > 0
    assert summary["op_latency"]  # at least one op kind recorded
    assert "device_outstanding" in summary["timeseries"]["probes"]
    assert summary["trace_events"] > 0
    assert summary["trace_events_dropped"] == 0


def _traced_fault_run():
    spec = WorkloadSpec(kind="ycsb", n_keys=2_000, n_ops=300)
    return run_pa(
        spec, seed=1, trace=True, faults={"read_error_rate": 0.3},
        device_profile=fast_test_profile(),
    )


def test_traced_retries_agree_with_the_run():
    result = _traced_fault_run()
    session = result["trace_session"]
    retries = [
        e for e in session.tracer.events
        if e[0] == EV_INSTANT and e[1:3] == ("io", "retry")
    ]
    assert result["io_retries"] > 0
    assert session.io_retries == len(retries) == result["io_retries"]
    assert session.bench_summary()["faults"]["io_retries"] == result["io_retries"]


def test_traced_fault_run_is_deterministic():
    # escalated I/O errors are recorded too, named by nothing run-specific
    first, second = (_traced_fault_run()["trace_session"] for _ in range(2))
    assert any(e[1:3] == ("io", "io_error") for e in first.tracer.events)
    assert first.tracer.events == second.tracer.events


@pytest.mark.parametrize("persistence", ["strong", "weak"])
def test_traced_buffered_run_reports_the_buffer(persistence):
    spec = WorkloadSpec(kind="ycsb", n_keys=2_000, n_ops=300, sync_every=100)
    result = run_pa(
        spec, seed=5, trace=True, persistence=persistence, buffer_pages=64,
    )
    summary = result["trace_session"].bench_summary()
    buffer = summary["buffer"]
    assert buffer["hits"] > 0
    # both buffers' snapshots: only the write-back one absorbs writes
    assert ("write_absorbs" in buffer) == (persistence == "weak")
    probes = summary["timeseries"]["probes"]
    assert probes["buffer_hit_rate"]["samples"] > 0
    assert 0 < probes["buffer_hit_rate"]["last"] <= 1
    assert probes["buffer_dirty"]["samples"] > 0
    if persistence == "strong":
        assert probes["buffer_dirty"]["max"] == 0
    else:
        assert probes["buffer_dirty"]["max"] > 0
