"""Fixed-bucket histograms and the periodic virtual-time sampler.

Histograms replace per-sample latency lists where a run only needs the
distribution shape: memory is O(buckets) regardless of run length, and
the snapshot reports count / mean / approximate percentiles read off the
bucket boundaries.

The :class:`TimeSeriesSampler` rides the simulation engine itself: it
schedules a callback every ``interval_ns`` of virtual time and reads a
set of named probes (queue depth, outstanding I/Os, buffer hit rate,
device utilisation).  Because the probes only *read* state, a sampled
run reaches the same virtual-time results as an unsampled one — the
sampler adds engine events but charges no CPU and mutates nothing.
"""

import bisect

from repro.sim.clock import to_usec


def _default_latency_bounds_ns():
    """Log-spaced bucket upper bounds from 1 us to ~1 s (1-2-5 decades)."""
    bounds = []
    for decade in range(7):  # 1e3 ns .. 1e9 ns
        for mantissa in (1, 2, 5):
            bounds.append(mantissa * 10 ** (decade + 3))
    return bounds


class Histogram:
    """Counts of samples in fixed buckets; bounds are upper edges (ns).

    Values above the last bound land in an overflow bucket whose edge is
    reported as ``inf``.  Exact count, sum, min and max are kept
    alongside, so means are exact and only percentiles are approximate.
    """

    __slots__ = ("bounds", "counts", "count", "sum", "min", "max")

    def __init__(self, bounds=None):
        self.bounds = list(bounds) if bounds is not None else _default_latency_bounds_ns()
        if sorted(self.bounds) != self.bounds:
            raise ValueError("histogram bounds must be sorted ascending")
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0
        self.min = None
        self.max = None

    def record(self, value):
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def quantile(self, q):
        """Approximate q-quantile (q in [0, 1]): the upper edge of the
        bucket containing the q-th sample, clamped to the observed max."""
        if self.count == 0:
            return 0
        rank = q * (self.count - 1)
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            seen += bucket_count
            if seen > rank:
                if index >= len(self.bounds):
                    return self.max
                return min(self.bounds[index], self.max)
        return self.max

    def mean(self):
        return self.sum / self.count if self.count else 0.0

    def snapshot(self):
        """Summary dict (microsecond units) for exporters and BENCH json."""
        return {
            "count": self.count,
            "mean_us": to_usec(self.mean()),
            "min_us": to_usec(self.min) if self.count else 0.0,
            "p50_us": to_usec(self.quantile(0.50)),
            "p99_us": to_usec(self.quantile(0.99)),
            "p999_us": to_usec(self.quantile(0.999)),
            "max_us": to_usec(self.max) if self.count else 0.0,
            "buckets": [
                {"le_us": to_usec(bound), "count": self.counts[i]}
                for i, bound in enumerate(self.bounds)
            ]
            + [{"le_us": "inf", "count": self.counts[-1]}],
        }


def latency_histogram():
    """A histogram with the default 1 us .. 1 s latency buckets."""
    return Histogram()


class TimeSeriesSampler:
    """Samples named probes every ``interval_ns`` of virtual time."""

    def __init__(self, engine, interval_ns, tracer=None, track="metrics",
                 max_samples=100_000):
        self.engine = engine
        self.interval_ns = int(interval_ns)
        if self.interval_ns <= 0:
            raise ValueError("sampler interval must be positive")
        self.tracer = tracer
        self.track = track
        self.max_samples = max_samples
        self.samples = []  # (time_ns, {probe: value})
        self._probes = []  # (name, fn), registration order
        self._event = None
        self._running = False

    def add_probe(self, name, fn):
        """Register ``fn()`` to be read at every tick."""
        self._probes.append((name, fn))
        return self

    def start(self):
        if self._running:
            return
        self._running = True
        self._event = self.engine.schedule(self.interval_ns, self._tick)

    def stop(self):
        self._running = False
        if self._event is not None:
            self.engine.cancel(self._event)
            self._event = None

    def _tick(self):
        self._event = None  # it has just fired: nothing left to cancel
        if not self._running:
            return
        row = {}
        for name, fn in self._probes:
            value = fn()
            if value is not None:
                row[name] = value
        if len(self.samples) < self.max_samples:
            self.samples.append((self.engine.now, row))
        if self.tracer is not None and self.tracer.enabled and row:
            self.tracer.counter(self.track, "samples", row)
        if len(self.samples) < self.max_samples:
            self._event = self.engine.schedule(self.interval_ns, self._tick)
        else:
            self._running = False

    def summary(self):
        """Per-probe min/mean/max/last over all collected samples."""
        out = {}
        for name, _fn in self._probes:
            values = [row[name] for _t, row in self.samples if name in row]
            if not values:
                out[name] = {"samples": 0}
                continue
            out[name] = {
                "samples": len(values),
                "min": min(values),
                "mean": sum(values) / len(values),
                "max": max(values),
                "last": values[-1],
            }
        return out
