"""Tests for the exported latency histogram and repro.obs.series.

The histogram an exporter writes is a
:class:`~repro.sim.metrics.LatencyRecorder`'s ``snapshot()`` over the
default bounds.  Its corners the metrics subsystem leans on: no
samples, extreme quantiles, the overflow bucket's clamping behaviour,
and a property test holding it equal to the cumulative bucket walk a
counter-per-bucket histogram takes.  And the one sampler both observer
sessions ride: its virtual-time cadence, the sample cap, its
start/stop/re-start lifecycle and interval validation.
"""

import bisect

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import TimeSeriesSampler
from repro.sim.clock import to_usec
from repro.sim.engine import Engine
from repro.sim.metrics import LATENCY_BOUNDS_NS, LatencyRecorder


# ----------------------------------------------------------------------
# histogram edges
# ----------------------------------------------------------------------


def _snapshot(samples):
    recorder = LatencyRecorder()
    for value in samples:
        recorder.record(value)
    return recorder.snapshot()


def _counts(snapshot):
    return [bucket["count"] for bucket in snapshot["buckets"]]


def test_empty_histogram_is_all_zeros():
    snap = _snapshot(())
    assert snap["count"] == 0 and snap["mean_us"] == 0.0
    assert snap["min_us"] == 0.0 and snap["max_us"] == 0.0
    assert snap["p50_us"] == 0.0 and snap["p999_us"] == 0.0
    assert _counts(snap) == [0] * (len(LATENCY_BOUNDS_NS) + 1)
    assert snap["buckets"][0]["le_us"] == 1.0
    assert snap["buckets"][-2]["le_us"] == 5_000_000.0


def test_quantile_extremes_clamp_to_observed_range():
    keys = ("min_us", "p50_us", "p99_us", "p999_us", "max_us")
    for samples, expected in (
        # p50 is the upper edge of the sample's bucket, p99 the max
        ((400, 600, 1_300, 1_400), (0.4, 1.0, 1.4, 1.4, 1.4)),
        # a sample on an edge belongs to the bucket that edge closes
        ((1_000, 2_000, 5_000, 10_000, 100_000), (1.0, 5.0, 10.0, 10.0, 100.0)),
    ):
        snap = _snapshot(samples)
        assert tuple(snap[key] for key in keys) == expected


def test_single_sample_every_quantile_is_that_bucket():
    snap = _snapshot([7_300])
    # the bucket's edge is 10 us, clamped to max = 7.3 us
    assert snap["p50_us"] == snap["p99_us"] == snap["p999_us"] == 7.3
    assert {"le_us": 10.0, "count": 1} in snap["buckets"]


def test_overflow_bucket_catches_values_past_last_bound():
    for samples, overflow, p99_us in (
        # quantiles in the overflow bucket report the observed max
        ((6_000_000_000, 10_000_000_000), 2, 10_000_000.0),
        ((5, 10_000_000_000), 1, 1.0),
    ):
        snap = _snapshot(samples)
        assert snap["buckets"][-1] == {"le_us": "inf", "count": overflow}
        assert snap["p99_us"] == p99_us
        assert sum(_counts(snap)) == len(samples)


def test_exact_moments_alongside_approximate_percentiles():
    recorder = LatencyRecorder()
    for value in (100, 200, 300):
        recorder.record(value)
    snap = recorder.snapshot()
    assert snap["mean_us"] == 0.2 and snap["count"] == 3
    assert sum(recorder.samples()) == 600
    # the bucket edge (1 us) is clamped to the max, not the exact p50
    assert snap["p50_us"] == 0.3 and recorder.p50_usec() == 0.2


def _bucket_walk(samples):
    """Bucket counts and p50 / p99 / p999 (ns) as a fixed-bucket
    histogram takes them: a counter per bucket, then the upper edge of
    the bucket where the running count passes ``q * (n - 1)``, clamped
    to the max (the max itself in the overflow bucket)."""
    counts = [0] * (len(LATENCY_BOUNDS_NS) + 1)
    for value in samples:
        counts[bisect.bisect_left(LATENCY_BOUNDS_NS, value)] += 1

    def quantile(q):
        if not samples:
            return 0
        rank = q * (len(samples) - 1)
        seen = 0
        for index, count in enumerate(counts):
            seen += count
            if seen > rank:
                if index >= len(LATENCY_BOUNDS_NS):
                    return max(samples)
                return min(LATENCY_BOUNDS_NS[index], max(samples))
        return max(samples)

    return counts, [quantile(q) for q in (0.50, 0.99, 0.999)]


_AT_A_BOUND = st.sampled_from(LATENCY_BOUNDS_NS).flatmap(
    lambda bound: st.sampled_from((bound - 1, bound, bound + 1))
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(st.integers(0, 2 * LATENCY_BOUNDS_NS[-1]), _AT_A_BOUND),
        max_size=300,
    )
)
def test_snapshot_equals_the_cumulative_bucket_walk(samples):
    snap = _snapshot(samples)
    counts, quantiles = _bucket_walk(samples)
    assert _counts(snap) == counts
    assert [snap["p50_us"], snap["p99_us"], snap["p999_us"]] == [
        to_usec(value) for value in quantiles
    ]


# ----------------------------------------------------------------------
# the sampler
# ----------------------------------------------------------------------


def _constant(value=1):
    return lambda: value


def test_sampler_rides_virtual_time_and_stops():
    engine = Engine(seed=1)
    ticks = []
    sampler = TimeSeriesSampler(engine, 1_000, lambda: len(ticks))
    engine.schedule(500, lambda: ticks.append(1))
    engine.schedule(2_500, lambda: ticks.append(2))
    sampler.start()
    engine.schedule(3_500, sampler.stop)
    engine.run()
    # each row is what ``read`` returned at its tick, stamped in virtual time
    assert sampler.samples == [(1_000, 1), (2_000, 1), (3_000, 2)]


def test_sampler_stop_then_restart_resumes_ticking():
    engine = Engine(seed=1)
    sampler = TimeSeriesSampler(engine, 1_000, _constant())

    sampler.start()
    engine.schedule(2_500, sampler.stop)
    engine.schedule(4_500, sampler.start)
    engine.schedule(6_700, sampler.stop)
    engine.run()

    # ticks at 1000/2000, silence while stopped, resumed ticks counted
    # from the restart time
    times = [t for t, _row in sampler.samples]
    assert times == [1_000, 2_000, 5_500, 6_500]


def test_sampler_start_is_idempotent():
    engine = Engine(seed=1)
    sampler = TimeSeriesSampler(engine, 1_000, _constant())
    sampler.start()
    sampler.start()  # second start must not double-schedule
    engine.schedule(3_500, sampler.stop)
    engine.run()
    assert [t for t, _row in sampler.samples] == [1_000, 2_000, 3_000]


def test_sampler_stop_without_start_is_a_no_op():
    engine = Engine(seed=1)
    sampler = TimeSeriesSampler(engine, 1_000, _constant())
    sampler.stop()
    assert sampler.samples == []


def test_sampler_caps_samples_and_halts():
    engine = Engine(seed=1)
    sampler = TimeSeriesSampler(engine, 1_000, _constant(), max_samples=3)
    sampler.start()
    engine.run()  # would tick forever without the cap
    assert len(sampler.samples) == 3
    assert sampler._running is False


def test_sampler_stop_after_the_cap_leaves_the_queue_intact():
    engine = Engine(seed=1)
    sampler = TimeSeriesSampler(engine, 1_000, _constant(4), max_samples=2)
    sampler.start()
    engine.schedule(5_000, lambda: None)
    engine.run(until_ns=3_000)
    assert len(sampler.samples) == 2 and sampler._event is None
    sampler.stop()  # its last tick has fired: there is nothing to cancel
    assert len(engine.events) == 1
    engine.run()
    assert (engine.now, len(engine.events)) == (5_000, 0)


def test_sampler_stopped_from_inside_its_own_tick_cancels_nothing():
    engine = Engine(seed=1)
    sampler = TimeSeriesSampler(engine, 1_000, lambda: sampler.stop() or 4)
    sampler.start()
    engine.schedule(5_000, lambda: None)
    engine.run()
    assert sampler.samples == [(1_000, 4)]
    assert (engine.now, len(engine.events)) == (5_000, 0)


def test_sampler_rejects_nonpositive_interval():
    engine = Engine(seed=1)
    for interval_ns in (0, -1_000):
        with pytest.raises(ValueError, match="interval must be positive"):
            TimeSeriesSampler(engine, interval_ns, _constant())
