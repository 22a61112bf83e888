"""Ready-operation queues (paper §IV-B).

Two implementations of the ready set ``R(C)``:

* :class:`FifoReadyQueue` — plain admission order (the naive
  scheduler, and the "without prioritized execution" arm of Fig 12).
* :class:`PriorityReadyQueue` — the paper's prioritized execution: an
  operation holding write latches is processed before others (so its
  exclusive latches release sooner, improving concurrency under
  contention), and ties break by admission order (older first, bounding
  individual latency).

The priority is computed when the operation (re-)enters the ready set,
which is exactly when its latch holdings last changed.
"""

import heapq
from collections import deque


class FifoReadyQueue(deque):
    """First-in-first-out ready set.

    A ``deque`` itself, so its size and truthiness are C-level; ``pop``
    takes the oldest operation, or None when the queue is empty.
    """

    __slots__ = ()

    push = deque.append

    def pop(self):
        if not self:
            return None
        return self.popleft()


class PriorityReadyQueue(list):
    """Write-latch holders first, then admission order.

    A ``list`` holding the heap, so its size and truthiness are
    C-level; ``pop`` takes the first operation, or None when empty.
    """

    __slots__ = ("_tiebreak",)

    def __init__(self):
        super().__init__()
        self._tiebreak = 0

    def push(self, op):
        holds_write = 1 if op.write_latches == 0 else 0
        self._tiebreak += 1
        heapq.heappush(self, (holds_write, op.seq, self._tiebreak, op))

    def pop(self):
        if not self:
            return None
        return heapq.heappop(self)[3]
