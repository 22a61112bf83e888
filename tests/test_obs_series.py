"""Tests for repro.obs.series (Histogram, TimeSeriesSampler).

Histogram corners the metrics subsystem leans on: empty histograms,
extreme quantiles, the overflow bucket's clamping behaviour.  And the
one sampler both observer sessions ride: its virtual-time cadence, the
sample cap, its start/stop/re-start lifecycle and interval validation.
"""

import pytest

from repro.obs import Histogram, TimeSeriesSampler
from repro.sim.engine import Engine


# ----------------------------------------------------------------------
# histogram edges
# ----------------------------------------------------------------------


def test_empty_histogram_is_all_zeros():
    histogram = Histogram()
    assert histogram.quantile(0.5) == 0
    assert histogram.mean() == 0.0
    snap = histogram.snapshot()
    assert snap["count"] == 0
    assert snap["min_us"] == 0.0 and snap["max_us"] == 0.0
    assert snap["p50_us"] == 0.0 and snap["p999_us"] == 0.0


def test_quantile_extremes_clamp_to_observed_range():
    histogram = Histogram([10, 100, 1_000])
    for value in (5, 50, 500):
        histogram.record(value)
    assert histogram.quantile(0.0) == 10  # upper edge of first bucket
    assert histogram.quantile(1.0) == 500  # clamped to observed max
    assert histogram.min == 5 and histogram.max == 500


def test_single_sample_every_quantile_is_that_bucket():
    histogram = Histogram([10, 100])
    histogram.record(7)
    for q in (0.0, 0.5, 0.99, 1.0):
        assert histogram.quantile(q) == 7  # clamped to max=7


def test_overflow_bucket_catches_values_past_last_bound():
    histogram = Histogram([10, 20])
    histogram.record(21)
    histogram.record(10_000)
    assert histogram.counts[-1] == 2
    # quantiles in the overflow bucket report the observed max
    assert histogram.quantile(0.99) == 10_000
    snap = histogram.snapshot()
    assert snap["buckets"][-1] == {"le_us": "inf", "count": 2}


def test_exact_moments_alongside_approximate_percentiles():
    histogram = Histogram([1_000])
    for value in (100, 200, 300):
        histogram.record(value)
    assert histogram.mean() == pytest.approx(200.0)
    assert histogram.sum == 600 and histogram.count == 3


def test_unsorted_bounds_rejected():
    with pytest.raises(ValueError):
        Histogram([100, 10])


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
