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

The model's prediction ``T @ beta`` is state as well (:meth:`use_model`):
the betas are doubles, so ints once scaled to one power of two, and
``w_sum`` / ``r_sum`` are python ints each unit move of a count updates
by its column's weights, so the verdict is two exact comparisons with
``scale``.  The rolling latency window of Fig 10's ``avg(t)`` baseline
is kept only when its policy asks (:meth:`keep_latency_window`).
"""

import sys
from collections import deque
from itertools import groupby
from operator import itemgetter

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
        self.outstanding_count = 0
        # the feature vector as of the last reader, which brings it up
        # to now.  Read it, never write it or keep it.
        self.counts = [0] * (2 * slices)
        # T @ beta * scale of the model in use; none predicts nothing
        self.scale = 1
        self.w_sum = self.r_sum = 0
        self._weights = self._steps = [(0, 0)] * (2 * slices)
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
        self._completions = None  # keep_latency_window() starts the window
        self._latency_sum = 0

    def use_model(self, model):
        """Keep ``model``'s prediction as running sums from now on."""
        self.scale = model.scale
        self._weights = weights = model.weights
        # column -> what a record ageing out of it adds to the sums
        pairs = zip(weights, weights[1:])
        self._steps = [(w1 - w0, r1 - r0) for (w0, r0), (w1, r1) in pairs]
        self.w_sum = sum(count * w for count, (w, _) in zip(self.counts, weights))
        self.r_sum = sum(count * r for count, (_, r) in zip(self.counts, weights))

    def keep_latency_window(self):
        """Keep every detected completion of the last second from now
        on, for :meth:`avg_completion_latency_ns` (no other reader)."""
        self._completions = deque()

    def on_submit(self, command):
        """Book a command the driver just accepted.

        Told at the instant the driver accepted it, so the command
        starts in the youngest slice.  Once per command and in submit
        order; a retry inside the driver re-stamps ``command.submit_ns``
        without coming back here, so the features keep ageing the
        command from its first submission.
        """
        submit_ns = command.submit_ns
        column = 0 if command.is_write else self.slices
        self._records[command] = record = [submit_ns, column]
        self.outstanding_count += 1
        self.counts[column] += 1
        w, r = self._weights[column]
        self.w_sum += w
        self.r_sum += r
        fifo = self._fifo_of[column]
        if fifo is not None:
            fifo.append(record)
            crossing = submit_ns + self.slice_ns
            if crossing < self._next_crossing:
                self._next_crossing = crossing

    def on_complete(self, command):
        """Record a completion *detected by probe* (polled-mode).

        A command this history was never told about touches no record
        (a kept latency window still takes its latency).
        """
        record = self._records.pop(command, None)
        if record is not None:
            column = record[1]
            record[1] = _DEAD
            self.outstanding_count -= 1
            self.counts[column] -= 1
            w, r = self._weights[column]
            self.w_sum -= w
            self.r_sum -= r
            fifo = self._fifo_of[column]
            if fifo is not None and fifo[0] is record:
                # a head is always live: drop this one and the dead
                # behind it.  The cached crossing may have been its.
                fifo.popleft()
                while fifo and fifo[0][1] == _DEAD:
                    fifo.popleft()
                self._next_crossing = _STALE
        if self._completions is not None:
            latency = self.clock.now - command.submit_ns
            self._completions.append((self.clock.now, latency))
            self._latency_sum += latency
            self._trim_completions()

    def _trim_completions(self):
        horizon = self.clock.now - usec(LATENCY_WINDOW_US)
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
        steps = self._steps
        w_sum = self.w_sum
        r_sum = self.r_sum
        next_crossing = _NEVER
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
                    step_w, step_r = steps[column]
                    w_sum += step_w
                    r_sum += step_r
                    column += 1
                    counts[column] += 1
                    record[1] = column
                    if older is not None:
                        # everything already there is older
                        older.append(record)
                fifo.popleft()
        self.w_sum = w_sum
        self.r_sum = r_sum
        self._next_crossing = next_crossing

    def predicts_completion(self):
        """The model's verdict now: at least one completion waiting
        (``LinearProbeModel.predicts_completion`` of the vector)."""
        if self.clock.now >= self._next_crossing:
            self._age()
        scale = self.scale
        return self.w_sum >= scale or self.r_sum >= scale

    def verdict_until_ns(self, until_ns):
        """The first instant before ``until_ns`` at which the verdict
        flips with no submit or completion, else ``until_ns``: every
        crossing before it, applied to copies of the sums one instant at
        a time (a record crosses once per slice it ages through)."""
        if self.clock.now >= self._next_crossing:
            self._age()
        if self._next_crossing >= until_ns:
            return until_ns
        slice_ns = self.slice_ns
        oldest_ns = (self.slices - 1) * slice_ns
        moves = []
        for fifo, boundary_ns, _ in self._walk:
            for submit_ns, column in fifo:
                if column != _DEAD:
                    if submit_ns + boundary_ns >= until_ns:
                        break  # and so does every record behind it
                    end_ns = min(until_ns, submit_ns + oldest_ns + 1)
                    at = range(submit_ns + boundary_ns, end_ns, slice_ns)
                    moves.extend(zip(at, range(column, column + len(at))))
        scale, w_sum, r_sum, steps = self.scale, self.w_sum, self.r_sum, self._steps
        verdict = w_sum >= scale or r_sum >= scale
        for at_ns, group in groupby(sorted(moves), itemgetter(0)):
            for _, column in group:
                step_w, step_r = steps[column]
                w_sum += step_w
                r_sum += step_r
            if (w_sum >= scale or r_sum >= scale) != verdict:
                return at_ns
        return until_ns

    def feature_vector(self):
        """The ``2n``-dim feature list ``[w_1..w_n, r_1..r_n]`` of int
        counts, the caller's to keep."""
        if self.clock.now >= self._next_crossing:
            self._age()
        return list(self.counts)

    def avg_completion_latency_ns(self):
        """Mean detected-completion latency over the rolling window of
        a history told to :meth:`keep_latency_window`."""
        self._trim_completions()
        count = len(self._completions)
        if count == 0:
            return 0
        return self._latency_sum // count
