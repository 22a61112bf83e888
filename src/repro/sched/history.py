"""Runtime I/O bookkeeping for the workload-aware scheduler.

Tracks the working thread's outstanding I/O commands and produces the
paper's feature vector ``T = w|r`` (§IV-A): the recent ``t``
microseconds are divided into ``n`` time slices, and ``w_i`` / ``r_i``
count the outstanding write / read commands submitted within the
``i``-th slice (slice 0 = most recent).  Commands older than the
window are clamped into the oldest slice — they are still outstanding
and still predictive.

Also maintains the rolling average completion latency used by the
``avg(t)`` probing baseline of Fig 10.
"""

from collections import deque

from repro.sim.clock import usec

DEFAULT_WINDOW_US = 1000
DEFAULT_SLICES = 20


class IoHistory:
    """Outstanding-I/O tracker owned by one working thread."""

    def __init__(self, clock, window_us=DEFAULT_WINDOW_US, slices=DEFAULT_SLICES,
                 latency_window_us=1_000_000):
        if slices < 1:
            raise ValueError("need at least one slice")
        self.clock = clock
        self.window_ns = usec(window_us)
        self.slices = slices
        self.slice_ns = self.window_ns // slices
        self.latency_window_ns = usec(latency_window_us)
        self._outstanding = {}
        # bumped whenever the outstanding set changes: with the clock it
        # names one feature vector, for whoever keeps something derived
        self.version = 0
        self._completions = deque()
        self._latency_sum = 0
        self.submitted_reads = 0
        self.submitted_writes = 0
        self.detected_completions = 0

    @property
    def outstanding_count(self):
        return len(self._outstanding)

    def on_submit(self, command):
        self._outstanding[id(command)] = (command.submit_ns, command.is_write)
        self.version += 1
        if command.is_write:
            self.submitted_writes += 1
        else:
            self.submitted_reads += 1

    def on_complete(self, command):
        """Record a completion *detected by probe* (polled-mode)."""
        self._outstanding.pop(id(command), None)
        self.version += 1
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

    def feature_vector(self, at_ns=None):
        """The ``2n``-dim feature list ``[w_1..w_n, r_1..r_n]``.

        ``at_ns`` lets the scheduler ask "what will the vector look
        like at a future instant" for the CPU-yield decision (ages grow
        but no new submissions are assumed).
        """
        now = self.clock.now if at_ns is None else at_ns
        n = self.slices
        features = [0.0] * (2 * n)
        slice_ns = self.slice_ns
        last = n - 1
        for submit_ns, is_write in self._outstanding.values():
            age = now - submit_ns
            index = age // slice_ns
            if index > last:
                index = last
            elif index < 0:
                index = 0
            if is_write:
                features[index] += 1.0
            else:
                features[n + index] += 1.0
        return features

    def next_slice_crossing_ns(self):
        """First instant after now at which :meth:`feature_vector` changes
        with the outstanding set as it is (an I/O ages into its next
        slice), or None when every one already sits in the oldest."""
        now = self.clock.now
        slice_ns = self.slice_ns
        last = self.slices - 1
        crossing = None
        for submit_ns, _is_write in self._outstanding.values():
            index = (now - submit_ns) // slice_ns
            if index < last:
                at_ns = submit_ns + (max(index, 0) + 1) * slice_ns
                if crossing is None or at_ns < crossing:
                    crossing = at_ns
        return crossing

    def avg_completion_latency_ns(self):
        """Mean detected-completion latency over the rolling window."""
        self._trim_completions()
        count = len(self._completions)
        if count == 0:
            return 0
        return self._latency_sum // count
