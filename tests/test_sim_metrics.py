"""Unit tests for metric recorders."""

import pytest

from repro.sim.clock import Clock
from repro.sim.metrics import (
    CPU_NVME,
    CPU_OTHER,
    CPU_REAL_WORK,
    Counter,
    CpuAccount,
    LatencyRecorder,
    TimeWeightedGauge,
)


def test_counter():
    counter = Counter()
    counter.add()
    counter.add(4)
    assert counter.value == 5


def test_gauge_time_weighted_average():
    clock = Clock()
    gauge = TimeWeightedGauge(clock)
    gauge.set(10)          # value 10 from t=0
    clock.advance_to(100)
    gauge.set(0)           # 10 * 100
    clock.advance_to(200)  # 0 * 100
    assert gauge.average() == pytest.approx(5.0)


def test_gauge_add_and_max():
    clock = Clock()
    gauge = TimeWeightedGauge(clock)
    gauge.add(3)
    gauge.add(4)
    gauge.add(-2)
    assert gauge.value == 5
    assert gauge.max_value == 7


def test_gauge_average_since_window():
    clock = Clock()
    gauge = TimeWeightedGauge(clock)
    clock.advance_to(100)
    gauge.set(8)
    clock.advance_to(200)
    # from t=100 to t=200 value was 8 (set at 100)
    assert gauge.average(since_ns=100) == pytest.approx(8.0)


def test_gauge_windowed_average_with_mark():
    clock = Clock()
    gauge = TimeWeightedGauge(clock)
    gauge.set(100)
    clock.advance_to(1_000)
    start = gauge.mark()
    gauge.set(2)
    clock.advance_to(2_000)
    # only the [1000, 2000) window counts: value 2 throughout, not the
    # value-100 prefix that used to inflate windowed averages
    assert gauge.average(since_ns=start) == pytest.approx(2.0)
    # whole-lifetime average still exact
    assert gauge.average() == pytest.approx((100 * 1_000 + 2 * 1_000) / 2_000)


def test_gauge_tail_window_exact_without_mark():
    clock = Clock()
    gauge = TimeWeightedGauge(clock)
    gauge.set(50)
    clock.advance_to(100)
    gauge.set(4)  # last change at t=100
    clock.advance_to(300)
    # window starts after the last change: value constant at 4
    assert gauge.average(since_ns=200) == pytest.approx(4.0)


def test_gauge_unknowable_window_raises():
    clock = Clock()
    gauge = TimeWeightedGauge(clock)
    gauge.set(50)
    clock.advance_to(100)
    gauge.set(4)
    clock.advance_to(300)
    with pytest.raises(ValueError):
        gauge.average(since_ns=50)  # mid-history, never marked


def test_latency_recorder_stats():
    recorder = LatencyRecorder()
    for latency_us in [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]:
        recorder.record(latency_us * 1_000)
    assert recorder.mean_usec() == pytest.approx(5.5)
    assert recorder.p50_usec() == pytest.approx(5.5)
    assert recorder.percentile_usec(0) == pytest.approx(1.0)
    assert recorder.percentile_usec(100) == pytest.approx(10.0)


def test_latency_recorder_empty():
    recorder = LatencyRecorder()
    assert recorder.mean_usec() == 0.0
    assert recorder.p99_usec() == 0.0
    assert len(recorder) == 0


def test_latency_recorder_single_sample():
    recorder = LatencyRecorder()
    recorder.record(2_000)
    assert recorder.p50_usec() == pytest.approx(2.0)
    assert recorder.p99_usec() == pytest.approx(2.0)


def test_latency_recorder_percentile_does_not_mutate_order():
    recorder = LatencyRecorder()
    arrivals = [9_000, 1_000, 5_000, 3_000]
    for sample in arrivals:
        recorder.record(sample)
    recorder.p99_usec()
    assert recorder.samples() == arrivals  # arrival order preserved
    # interleaving record with queries stays correct
    recorder.record(10_000)
    assert recorder.percentile_usec(100) == pytest.approx(10.0)
    assert recorder.samples() == arrivals + [10_000]


def test_latency_recorder_p999_and_snapshot():
    recorder = LatencyRecorder()
    for sample_us in range(1, 1001):
        recorder.record(sample_us * 1_000)
    assert recorder.percentile_usec(99.9) == pytest.approx(999.001, rel=1e-6)
    snap = recorder.snapshot()
    assert snap["count"] == 1000
    assert (snap["mean_us"], snap["min_us"], snap["max_us"]) == (
        500.5, 1.0, 1000.0
    )
    # bucket edges, not the exact interpolated percentiles
    assert recorder.p50_usec() == 500.5 and snap["p50_us"] == 500.0
    assert snap["p99_us"] == snap["p999_us"] == 1000.0
    counts = {
        bucket["le_us"]: bucket["count"]
        for bucket in snap["buckets"]
        if bucket["count"]
    }
    assert counts == {
        1.0: 1, 2.0: 1, 5.0: 3, 10.0: 5, 20.0: 10, 50.0: 30,
        100.0: 50, 200.0: 100, 500.0: 300, 1000.0: 500,
    }


def test_cpu_account_categories():
    account = CpuAccount()
    account.charge(100, CPU_REAL_WORK)
    account.charge(300, CPU_NVME)
    account.charge(100, "bogus-category")  # folds into other
    assert account.total_ns == 500
    assert account.by_category[CPU_REAL_WORK] == 100
    assert account.by_category[CPU_OTHER] == 100
    assert account.fraction(CPU_NVME) == pytest.approx(0.6)


def test_cpu_account_merge():
    a = CpuAccount()
    b = CpuAccount()
    a.charge(10, CPU_REAL_WORK)
    b.charge(30, CPU_REAL_WORK)
    merged = a.merged(b)
    assert merged.by_category[CPU_REAL_WORK] == 40
    assert merged.total_ns == 40
    assert a.total_ns == 10  # inputs untouched

