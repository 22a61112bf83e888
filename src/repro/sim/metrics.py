"""Measurement primitives.

The paper reports throughput, mean latency, IOPS, time-averaged
outstanding I/Os, CPU cores consumed, context-switch counts and a CPU
breakdown by activity.  These recorders provide each of those as exact
accounted quantities in virtual time.
"""

import bisect
import math

from repro.sim.clock import to_usec

# CPU burst categories used for the Fig 9 breakdown.
CPU_REAL_WORK = "real_work"
CPU_SYNC = "synchronization"
CPU_NVME = "nvme"
CPU_SCHED = "scheduling"
CPU_OTHER = "other"

CPU_CATEGORIES = (CPU_REAL_WORK, CPU_SYNC, CPU_NVME, CPU_SCHED, CPU_OTHER)

#: Upper bucket edges (ns) of an exported latency histogram: 1-2-5 per
#: decade from 1 us to 5 s.  A sample past the last edge counts in the
#: overflow bucket.
LATENCY_BOUNDS_NS = tuple(
    mantissa * 10 ** exponent
    for exponent in range(3, 10)
    for mantissa in (1, 2, 5)
)


class Counter:
    """A monotonically increasing event counter."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def add(self, n=1):
        self.value += n

    def __repr__(self):
        return "Counter(%d)" % self.value


class TimeWeightedGauge:
    """Tracks the time integral of a piecewise-constant quantity.

    Used for time-averaged queue depth / outstanding I/Os: each change
    is recorded with the clock, and :meth:`average` divides the integral
    by elapsed time.
    """

    __slots__ = ("_clock", "_value", "_last_ns", "_area", "_max",
                 "_start_ns", "_marks")

    def __init__(self, clock):
        self._clock = clock
        self._value = 0
        self._last_ns = clock.now
        self._area = 0.0
        self._max = 0
        self._start_ns = clock.now
        self._marks = {}

    @property
    def value(self):
        return self._value

    @property
    def max_value(self):
        return self._max

    def set(self, value):
        now = self._clock.now
        self._area += self._value * (now - self._last_ns)
        self._last_ns = now
        self._value = value
        if value > self._max:
            self._max = value

    def add(self, delta):
        self.set(self._value + delta)

    def _area_now(self):
        return self._area + self._value * (self._clock.now - self._last_ns)

    def mark(self):
        """Checkpoint the accumulated area at the current instant.

        Call at the start of a measurement window, then pass the
        returned time to :meth:`average` to get the exact mean over
        that window.
        """
        now = self._clock.now
        self._marks[now] = self._area_now()
        return now

    def average(self, since_ns=0):
        """Time-weighted mean of the gauge from ``since_ns`` to now.

        Exact when ``since_ns`` is 0 (whole lifetime), a time returned
        by :meth:`mark`, or no later than the last value change (the
        value has been constant over the tail).  Other window starts
        would silently require area the gauge no longer has, so they
        raise ``ValueError`` instead of inflating the average by
        dividing the whole accumulated area by the short window.
        """
        now = self._clock.now
        elapsed = now - since_ns
        if elapsed <= 0:
            return float(self._value)
        area = self._area_now()
        if since_ns > self._start_ns:
            base = self._marks.get(since_ns)
            if base is None:
                if since_ns >= self._last_ns:
                    base = area - self._value * (now - since_ns)
                else:
                    raise ValueError(
                        "no checkpoint at t=%d; call mark() at the window"
                        " start for windowed averages" % since_ns
                    )
            area -= base
        return area / elapsed


class LatencyRecorder:
    """Stores latency samples (ns) and reports summary statistics.

    Queries never mutate the recording order: percentiles work on a
    lazily built sorted copy that is invalidated by :meth:`record`, so
    interleaving queries with recording is safe and ``samples()``
    always returns samples in arrival order.
    """

    def __init__(self):
        self._samples = []
        self._sorted_cache = None

    def __len__(self):
        return len(self._samples)

    def record(self, latency_ns):
        self._samples.append(latency_ns)
        self._sorted_cache = None

    def samples(self):
        """The raw samples in arrival order (read-only view by copy)."""
        return list(self._samples)

    def _sorted_samples(self):
        if self._sorted_cache is None:
            self._sorted_cache = sorted(self._samples)
        return self._sorted_cache

    def mean_usec(self):
        if not self._samples:
            return 0.0
        return to_usec(sum(self._samples) / len(self._samples))

    def percentile_usec(self, q):
        """q-th percentile in microseconds, q in [0, 100]."""
        if not self._samples:
            return 0.0
        ordered = self._sorted_samples()
        if len(ordered) == 1:
            return to_usec(ordered[0])
        rank = (q / 100.0) * (len(ordered) - 1)
        lo = int(math.floor(rank))
        hi = int(math.ceil(rank))
        if lo == hi:
            return to_usec(ordered[lo])
        frac = rank - lo
        interp = ordered[lo] * (1 - frac) + ordered[hi] * frac
        return to_usec(interp)

    def p50_usec(self):
        return self.percentile_usec(50)

    def p99_usec(self):
        return self.percentile_usec(99)

    def snapshot(self):
        """Summary dict (microsecond units) the exporters write.

        Count, mean, min and max are exact.  p50 / p99 / p999 read the
        sorted sample at index ``int(q * (n - 1))`` and report the
        upper edge of its :data:`LATENCY_BOUNDS_NS` bucket, clamped to
        the max (the max itself past the last edge).  ``buckets`` holds
        each bucket's count, the overflow bucket's edge as ``inf``.
        """
        ordered = self._sorted_samples()
        buckets = []
        below = 0
        for bound in LATENCY_BOUNDS_NS:
            upto = bisect.bisect_right(ordered, bound)
            buckets.append({"le_us": to_usec(bound), "count": upto - below})
            below = upto
        buckets.append({"le_us": "inf", "count": len(ordered) - below})
        return {
            "count": len(ordered),
            "mean_us": self.mean_usec(),
            "min_us": to_usec(ordered[0]) if ordered else 0.0,
            "p50_us": to_usec(_bucket_edge(ordered, 0.50)),
            "p99_us": to_usec(_bucket_edge(ordered, 0.99)),
            "p999_us": to_usec(_bucket_edge(ordered, 0.999)),
            "max_us": to_usec(ordered[-1]) if ordered else 0.0,
            "buckets": buckets,
        }


def _bucket_edge(ordered, q):
    """The upper edge of the bucket holding sample ``int(q * (n - 1))``
    of ``ordered``, clamped to the max; 0 for no samples."""
    if not ordered:
        return 0
    value = ordered[int(q * (len(ordered) - 1))]
    index = bisect.bisect_left(LATENCY_BOUNDS_NS, value)
    if index == len(LATENCY_BOUNDS_NS):
        return ordered[-1]
    return min(LATENCY_BOUNDS_NS[index], ordered[-1])


class CpuAccount:
    """CPU time ledger, split by activity category (for Fig 9)."""

    def __init__(self):
        self.by_category = {name: 0 for name in CPU_CATEGORIES}
        self.total_ns = 0

    def charge(self, ns, category=CPU_OTHER):
        if category not in self.by_category:
            category = CPU_OTHER
        self.by_category[category] += ns
        self.total_ns += ns

    def fraction(self, category):
        if self.total_ns == 0:
            return 0.0
        return self.by_category.get(category, 0) / self.total_ns

    def merged(self, other):
        """Return a new account summing this one with ``other``."""
        out = CpuAccount()
        for name in CPU_CATEGORIES:
            out.by_category[name] = (
                self.by_category[name] + other.by_category[name]
            )
        out.total_ns = self.total_ns + other.total_ns
        return out
