"""Open-loop operation source that remembers when each op was due."""

from repro.core.source import OperationSource
from repro.errors import WorkloadError
from repro.sim.clock import NS_PER_SEC


class DueTimeSource(OperationSource):
    """Poisson arrivals at a fixed virtual rate, admitted by schedule.

    Independent users do not wait for each other, so latency is timed
    from the instant an operation was *due* (``due_ns[i]`` for
    ``operations[i]``), not from when the worker got round to admitting
    it; the difference is the admission lag a stall imposes on the
    requests behind it.
    """

    def __init__(self, operations, rate_per_sec, rng):
        if rate_per_sec <= 0:
            raise WorkloadError("rate must be positive")
        self.operations = list(operations)
        mean_gap = NS_PER_SEC / rate_per_sec
        now = 0.0
        self.due_ns = []
        for _ in self.operations:
            now += rng.expovariate(1.0) * mean_gap
            self.due_ns.append(int(now))
        self._next = 0
        self.inflight = 0

    def poll(self, now_ns):
        batch = []
        due = self.due_ns
        index = self._next
        while index < len(due) and due[index] <= now_ns:
            batch.append(self.operations[index])
            index += 1
        self.inflight += index - self._next
        self._next = index
        return batch

    def on_op_complete(self, op):
        self.inflight -= 1

    def next_event_ns(self, now_ns):
        if self._next >= len(self.due_ns):
            return None
        return self.due_ns[self._next]

    def exhausted(self):
        return self._next >= len(self.due_ns) and self.inflight == 0

    def backlog_at_last_arrival(self):
        """Operations still unfinished when the last one became due.

        A source the system keeps up with leaves about rate x latency
        operations here; one it cannot keep up with leaves a share of
        the whole stream that grows with its length.
        """
        last_due = self.due_ns[-1]
        return sum(
            1
            for op in self.operations
            if op.done_ns is None or op.done_ns > last_due
        )
