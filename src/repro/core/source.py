"""Operation sources.

Model how applications hand operations to the index.  The paper's
application threads block while their operation is in flight, so from
the index's perspective the workload is either *closed-loop* (a fixed
number of concurrent callers => a fixed in-flight window) or
*open-loop* (operations arrive on a schedule regardless of completion,
as in the Fig 13 input-rate sweep).

Sources are pull-based: the working thread polls for admittable
operations each main-loop iteration and reports completions back.
"""

from repro.errors import WorkloadError
from repro.sim.clock import NS_PER_SEC


class OperationSource:
    """Interface the engine polls."""

    def poll(self, now_ns):
        """Operations to admit now (may be empty)."""
        raise NotImplementedError

    def on_op_complete(self, op):
        """The engine finished one previously admitted operation."""

    def next_event_ns(self, now_ns):
        """Virtual time of the next future arrival, or None.

        The worker takes idle turns in bursts on the strength of this:
        until a completion is reported (to this source or, where one
        router feeds several, to any of them -- each comes out of some
        worker's probe, an event no burst runs past), ``poll(t)`` is
        empty for every ``t`` before the instant returned, and for
        every ``t`` when that is None.
        """
        return None

    def exhausted(self):
        """True once no operation will ever be admitted again."""
        raise NotImplementedError


class ClosedLoopSource(OperationSource):
    """Keeps up to ``window`` operations in flight (concurrent callers)."""

    def __init__(self, operations, window=64):
        if window < 1:
            raise WorkloadError("window must be positive")
        self._operations = iter(operations)
        self.window = window
        self.inflight = 0
        self._drained = False
        self.emitted = 0

    def poll(self, now_ns):
        batch = []
        while self.inflight < self.window and not self._drained:
            try:
                op = next(self._operations)
            except StopIteration:
                self._drained = True
                break
            batch.append(op)
            self.inflight += 1
            self.emitted += 1
        return batch

    def on_op_complete(self, op):
        self.inflight -= 1

    def exhausted(self):
        return self._drained and self.inflight == 0


class OpenLoopSource(OperationSource):
    """Poisson (or scheduled) arrivals at a target rate, paper Fig 13."""

    def __init__(self, operations, rate_per_sec, rng):
        if rate_per_sec <= 0:
            raise WorkloadError("rate must be positive")
        self._pending = []
        now = 0.0
        mean_gap = NS_PER_SEC / rate_per_sec
        for op in operations:
            now += rng.expovariate(1.0) * mean_gap
            self._pending.append((int(now), op))
        self._pending.reverse()  # pop() from the end = earliest first
        self.inflight = 0
        self.emitted = 0

    def poll(self, now_ns):
        batch = []
        pending = self._pending
        while pending and pending[-1][0] <= now_ns:
            _, op = pending.pop()
            batch.append(op)
            self.inflight += 1
            self.emitted += 1
        return batch

    def on_op_complete(self, op):
        self.inflight -= 1

    def next_event_ns(self, now_ns):
        if not self._pending:
            return None
        return self._pending[-1][0]

    def exhausted(self):
        return not self._pending and self.inflight == 0
