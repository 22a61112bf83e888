"""Thread-blocking latches for the synchronous baselines.

The paper's shared and dedicated baselines use the same latch-coupling
protocol as PA-Tree but implemented with semaphore wait/post
primitives: a global table mutex protects the latch state, and a
blocked acquirer sleeps on a private semaphore until a releaser grants
it.  Every acquire/release therefore costs at least two semaphore
syscalls, and contention adds blocking, wakeup latency and context
switches — the synchronization overhead the paper's Fig 9 breakdown
attributes to the traditional execution paradigm.

The state behind the mutex is the polled engine's
:class:`~repro.core.latch.LatchTable`: one grant rule for both
paradigms, and an operation's holds live in ``op.held_latches``.
"""

from repro.core.latch import LatchTable
from repro.simos.sync import Mutex, Semaphore


class BlockingLatchTable:
    """Semaphore-based page latches shared by baseline worker threads."""

    def __init__(self):
        self._mutex = Mutex("latch-table")
        self._table = LatchTable()
        self._wakeups = {}  # queued op -> the semaphore it sleeps on

    @property
    def grants(self):
        return self._table.grants

    @property
    def waits(self):
        return self._table.waits

    def acquire(self, tls, op, page_id, mode):
        """Generator: blocks the calling simulated thread until granted."""
        simos = tls.simos
        simos.sem_wait(self._mutex) or (yield)
        if self._table.request(op, page_id, mode):
            simos.sem_post(self._mutex) or (yield)
            return
        wakeup = self._wakeups[op] = Semaphore(0, name="latch-wait-%d" % page_id)
        simos.sem_post(self._mutex) or (yield)
        simos.sem_wait(wakeup) or (yield)  # the releaser granted it already

    def release(self, tls, op, page_id):
        """Generator: releases and wakes the waiters it granted, in FIFO
        order."""
        simos = tls.simos
        simos.sem_wait(self._mutex) or (yield)
        granted = self._table.release(op, page_id)
        woken = [self._wakeups.pop(waiter) for waiter in granted]
        simos.sem_post(self._mutex) or (yield)
        for wakeup in woken:
            simos.sem_post(wakeup) or (yield)

    def assert_quiescent(self):
        self._table.assert_quiescent()
