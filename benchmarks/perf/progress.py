"""Host time of a timed phase, made steady on a shared host.

The sandbox gives the benchmark two cores of a shared machine.  Other
tenants slow it down in bursts (a second here, three there, up to 50 %)
and in spells (10-30 % for tens of seconds: CPU time stretches with wall
time, so it is the core that is slower, not the process descheduled).
The wall time of one 2-4 s timed phase -- and even the fastest of three
-- then moves by 25 % between runs of the same code.  Two facts make a
steadier number possible:

* the simulation is deterministic: the n-th kernel event of a
  ``(workload, seed)`` is the same piece of work in every repeat;
* a fixed piece of stdlib-only work (:func:`calibrate`: heap pushes and
  pops, dict lookups over a couple of MB -- what a simulator does, but none
  of ``repro``'s code, so no change to ``repro`` can move it) slows
  down with the simulator when the host does.

:class:`ProgressSampler` records both from an interval timer inside the
measuring process (no thread, no hook in the system under test): every
:data:`SAMPLE_PERIOD_S` it runs :func:`calibrate` once, and notes how
long that took, how many events ``Engine.dispatched`` has counted and
how much host time the phase has had (calibration time excluded).

:func:`steady_seconds` cuts the event axis into slices of equal event
count.  A slice's time in one repeat is rescaled by how slow the
calibration ran during that very slice, i.e. it is counted in seconds
of the *reference host*, which runs one calibration in
:data:`CALIBRATION_REFERENCE_S`; that takes out the spells.  For every
slice the fastest repeat is taken (interference only ever slows a slice
down); that takes out the bursts.  The slices are added up: every event
of the phase is in exactly one slice, so a change that speeds up or
slows down any part of the phase moves the sum.
"""

import bisect
import heapq
import signal
import statistics
import time

#: host seconds between two samples
SAMPLE_PERIOD_S = 0.02
#: host seconds one slice should last: about ten samples
SLICE_TARGET_S = 0.25
#: host seconds of one :func:`calibrate` call on the reference host (the
#: builder's 2-core sandbox at its fastest).  Frozen: it is
#: the unit of ``host_ops_per_s``, not a measurement.
CALIBRATION_REFERENCE_S = 0.002

_TABLE_SLOTS = 1 << 14
_TABLE = {slot: [0] for slot in range(_TABLE_SLOTS)}


def calibrate():
    """A fixed amount of simulator-like stdlib work; returns nothing."""
    heap = []
    table = _TABLE
    slot = 1
    for step in range(2000):
        slot = (slot * 7919 + 13) % _TABLE_SLOTS
        heapq.heappush(heap, (slot, step))
        table[slot][0] += 1
        if step & 1:
            heapq.heappop(heap)


class ProgressSampler:
    """``(net host seconds, events dispatched, calibration seconds)``.

    Net host seconds run from :meth:`start` and leave out the time
    spent calibrating, so they are what the system under test had.
    ``sim`` is the event kernel whose ``dispatched`` counter says how
    far the phase has got; set-up has none and records 0.
    """

    def __init__(self, sim=None):
        self._sim = sim
        self._start = None
        self._calibrating_s = 0.0
        self.samples = []

    def _mark(self, *_signal_args):
        before = time.perf_counter()
        calibrate()
        after = time.perf_counter()
        self._calibrating_s += after - before
        self.samples.append((
            after - self._start - self._calibrating_s,
            self._sim.dispatched if self._sim is not None else 0,
            after - before,
        ))

    def start(self):
        self._start = time.perf_counter()
        self._mark()
        signal.signal(signal.SIGALRM, self._mark)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self):
        """Stop sampling; returns the net host seconds since :meth:`start`."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._mark()
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        return self.samples[-1][0]


def reference_seconds(samples):
    """Reference-host seconds of a phase that is not cut into slices."""
    calibration_s = statistics.median(sample[2] for sample in samples)
    return samples[-1][0] * CALIBRATION_REFERENCE_S / calibration_s


def _events(sample):
    return sample[1]


def _slice_seconds(samples, edges):
    """Reference-host seconds one repeat spent in each event slice."""
    out = []
    low = 0
    low_s = samples[0][0]
    for edge in edges[1:]:
        # first sample at or past the edge; the edge's instant is
        # interpolated between it and the sample before
        high = bisect.bisect_left(samples, edge, lo=low, key=_events)
        t0, e0, _ = samples[high - 1]
        t1, e1, _ = samples[high]
        high_s = t0 + (t1 - t0) * (edge - e0) / (e1 - e0)
        calibration_s = statistics.median(
            sample[2] for sample in samples[max(low - 1, 0):high + 1]
        )
        out.append((high_s - low_s) * CALIBRATION_REFERENCE_S / calibration_s)
        low, low_s = high, high_s
    return out


def steady_seconds(repeats):
    """Reference-host seconds of one deterministic phase run several times.

    ``repeats`` holds the sample list of each repeat.  Returns the sum
    over event slices of the fastest repeat's time in the slice, and
    the same sum for each repeat alone.
    """
    first_event = repeats[0][0][1]
    last_event = repeats[0][-1][1]
    for samples in repeats:
        if (samples[0][1], samples[-1][1]) != (first_event, last_event):
            raise ValueError("the repeats did not run the same events")
    shortest_s = min(samples[-1][0] for samples in repeats)
    n_slices = max(1, round(shortest_s / SLICE_TARGET_S))
    edges = [
        first_event + (last_event - first_event) * k // n_slices
        for k in range(n_slices + 1)
    ]
    by_repeat = [_slice_seconds(samples, edges) for samples in repeats]
    fastest = sum(min(column) for column in zip(*by_repeat))
    return fastest, [sum(row) for row in by_repeat]
