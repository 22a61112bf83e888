"""Runtime I/O bookkeeping for the workload-aware scheduler.

Tracks the working thread's outstanding I/O commands and produces the
paper's feature vector ``T = w|r`` (§IV-A): the recent ``t``
microseconds are divided into ``n`` time slices, and ``w_i`` / ``r_i``
count the outstanding write / read commands submitted within the
``i``-th slice (slice 0 = most recent).  Commands older than the
window are clamped into the oldest slice — they are still outstanding
and still predictive.

The ``2n`` counts are kept as state, not rebuilt per question.  Every
outstanding command has one record ``[submit_ns, column]`` (``column``
is where in the vector it is counted now, ``_DEAD`` once completed),
and the records of slice ``k`` wait in FIFO ``k`` in submit order; the
oldest slice clamps and needs none.  Submitting books a record in
slice 0 and completing takes it out of the column it is booked under;
neither looks at any other record.  Only a reader ages the records,
and only once the clock has reached ``_next_crossing``, the first
instant a live record leaves its slice: ages only grow and each FIFO
is in submit order, so the record at its head is the first of its
slice to cross, and moving heads until one has not crossed yet leaves
every live record in column ``min(age // slice_ns, n - 1)`` — the
vector a loop over all of them would build (DESIGN.md §4.5).

Also maintains the rolling average completion latency used by the
``avg(t)`` probing baseline of Fig 10.
"""

import sys
from collections import deque

from repro.sim.clock import usec

DEFAULT_WINDOW_US = 1000
DEFAULT_SLICES = 20
#: The rolling average completion latency covers the last second.
LATENCY_WINDOW_US = 1_000_000

_DEAD = -1
_NEVER = sys.maxsize
# below any clock reading: the record the cached crossing belonged to is
# gone, so the next reader works it out again from the FIFO heads
_STALE = -1


class IoHistory:
    """Outstanding-I/O tracker owned by one working thread."""

    def __init__(self, clock, window_us=DEFAULT_WINDOW_US, slices=DEFAULT_SLICES):
        if slices < 1:
            raise ValueError("need at least one slice")
        self.clock = clock
        self.window_ns = usec(window_us)
        self.slices = slices
        self.slice_ns = self.window_ns // slices
        self.latency_window_ns = usec(LATENCY_WINDOW_US)
        self.outstanding_count = 0
        # the feature vector as of the last reader; shape_stamp() brings
        # it up to now.  Read it, never write it or keep it.
        self.counts = [0] * (2 * slices)
        self._records = {}
        # column -> the FIFO its records wait in; the oldest slice has none
        fifos = [deque() for _ in range(slices - 1)] + [None]
        self._fifo_of = fifos * 2
        # per FIFO: the age at which its head leaves, and where it goes
        self._walk = [
            (fifo, (index + 1) * self.slice_ns, fifos[index + 1])
            for index, fifo in enumerate(fifos[:-1])
        ]
        self._next_crossing = _NEVER
        self._stamp = 0
        self._completions = deque()
        self._latency_sum = 0
        self.submitted_reads = 0
        self.submitted_writes = 0
        self.detected_completions = 0

    def on_submit(self, command):
        """Book a command the driver just accepted.

        Once per command and in submit order; a retry inside the driver
        re-stamps ``command.submit_ns`` without coming back here, so the
        features keep ageing the command from its first submission.
        """
        submit_ns = command.submit_ns
        slice_ns = self.slice_ns
        index = 0
        if self.clock.now - submit_ns >= slice_ns:
            # told late: what was booked before it goes ahead of it
            self._age()
            index = min((self.clock.now - submit_ns) // slice_ns, self.slices - 1)
        if command.is_write:
            self.submitted_writes += 1
            column = index
        else:
            self.submitted_reads += 1
            column = self.slices + index
        self._records[command] = record = [submit_ns, column]
        self.outstanding_count += 1
        self.counts[column] += 1
        self._stamp += 1
        fifo = self._fifo_of[column]
        if fifo is not None:
            fifo.append(record)
            crossing = submit_ns + (index + 1) * slice_ns
            if crossing < self._next_crossing:
                self._next_crossing = crossing

    def on_complete(self, command):
        """Record a completion *detected by probe* (polled-mode).

        A command this history was never told about counts as a
        detected completion with its latency and touches no record.
        """
        record = self._records.pop(command, None)
        if record is not None:
            column = record[1]
            record[1] = _DEAD
            self.outstanding_count -= 1
            self.counts[column] -= 1
            self._stamp += 1
            fifo = self._fifo_of[column]
            if fifo is not None and fifo[0] is record:
                # a head is always live: drop this one and the dead
                # behind it.  The cached crossing may have been its.
                fifo.popleft()
                while fifo and fifo[0][1] == _DEAD:
                    fifo.popleft()
                self._next_crossing = _STALE
        self.detected_completions += 1
        latency = self.clock.now - command.submit_ns
        self._completions.append((self.clock.now, latency))
        self._latency_sum += latency
        self._trim_completions()

    def _trim_completions(self):
        horizon = self.clock.now - self.latency_window_ns
        completions = self._completions
        while completions and completions[0][0] < horizon:
            _, latency = completions.popleft()
            self._latency_sum -= latency

    def _age(self):
        """Move every live record whose age left its slice to the one it
        is in now, young FIFOs first so that one that jumped several
        slices cascades, and cache the next instant one will cross."""
        now = self.clock.now
        counts = self.counts
        next_crossing = _NEVER
        moved = 0
        for fifo, boundary_ns, older in self._walk:
            while fifo:
                record = fifo[0]
                column = record[1]
                if column != _DEAD:
                    crossing = record[0] + boundary_ns
                    if crossing > now:
                        if crossing < next_crossing:
                            next_crossing = crossing
                        break
                    counts[column] -= 1
                    column += 1
                    counts[column] += 1
                    record[1] = column
                    moved += 1
                    if older is not None:
                        # everything already there is older
                        older.append(record)
                fifo.popleft()
        self._stamp += moved
        self._next_crossing = next_crossing

    def shape_stamp(self):
        """A number that changes whenever the feature vector does (a
        submit, a completion, a record ageing into its next slice):
        while it stands, whatever was derived from ``counts`` stands."""
        if self.clock.now >= self._next_crossing:
            self._age()
        return self._stamp

    def feature_vector(self):
        """The ``2n``-dim feature list ``[w_1..w_n, r_1..r_n]`` of int
        counts, the caller's to keep."""
        self.shape_stamp()
        return list(self.counts)

    def next_slice_crossing_ns(self):
        """First instant after now at which :meth:`feature_vector` changes
        with the outstanding set as it is (an I/O ages into its next
        slice), or None when every one already sits in the oldest."""
        self.shape_stamp()
        if self._next_crossing == _NEVER:
            return None
        return self._next_crossing

    def avg_completion_latency_ns(self):
        """Mean detected-completion latency over the rolling window."""
        self._trim_completions()
        count = len(self._completions)
        if count == 0:
            return 0
        return self._latency_sum // count
