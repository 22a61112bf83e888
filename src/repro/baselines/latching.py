"""Thread-blocking latches for the synchronous baselines.

The paper's shared and dedicated baselines use the same latch-coupling
protocol as PA-Tree but implemented with semaphore wait/post
primitives: a global table mutex protects the latch state, and a
blocked acquirer sleeps on a private semaphore until a releaser grants
it.  Every acquire/release therefore costs at least two semaphore
syscalls, and contention adds blocking, wakeup latency and context
switches — the synchronization overhead the paper's Fig 9 breakdown
attributes to the traditional execution paradigm.
"""

from collections import deque

from repro.core.latch import EXCLUSIVE, SHARED
from repro.errors import LatchError
from repro.simos.sync import Mutex, Semaphore


class _Entry:
    __slots__ = ("readers", "writers", "pending")

    def __init__(self):
        self.readers = 0
        self.writers = 0
        self.pending = deque()  # (mode, semaphore)

    @property
    def idle(self):
        return self.readers == 0 and self.writers == 0 and not self.pending

    def can_grant(self, mode):
        if mode == EXCLUSIVE:
            return self.readers == 0 and self.writers == 0
        return self.writers == 0

    def grant(self, mode):
        if mode == EXCLUSIVE:
            self.writers += 1
        else:
            self.readers += 1


class BlockingLatchTable:
    """Semaphore-based page latches shared by baseline worker threads."""

    def __init__(self):
        self._mutex = Mutex("latch-table")
        self._entries = {}
        self.acquisitions = 0
        self.blocks = 0

    def _entry(self, page_id):
        entry = self._entries.get(page_id)
        if entry is None:
            entry = _Entry()
            self._entries[page_id] = entry
        return entry

    def acquire(self, tls, page_id, mode):
        """Generator: blocks the calling simulated thread until granted."""
        if mode not in (SHARED, EXCLUSIVE):
            raise LatchError("unknown latch mode %r" % (mode,))
        simos = tls.simos
        simos.sem_wait(self._mutex) or (yield)
        self.acquisitions += 1
        entry = self._entry(page_id)
        if not entry.pending and entry.can_grant(mode):
            entry.grant(mode)
            simos.sem_post(self._mutex) or (yield)
            return
        self.blocks += 1
        wakeup = Semaphore(0, name="latch-wait-%d" % page_id)
        entry.pending.append((mode, wakeup))
        simos.sem_post(self._mutex) or (yield)
        simos.sem_wait(wakeup) or (yield)  # granter updated the counts already

    def release(self, tls, page_id, mode):
        """Generator: releases and wakes eligible FIFO waiters."""
        simos = tls.simos
        simos.sem_wait(self._mutex) or (yield)
        entry = self._entries.get(page_id)
        if entry is None:
            raise LatchError("release on unlatched page %d" % page_id)
        if mode == EXCLUSIVE:
            if entry.writers != 1:
                raise LatchError("exclusive release without writer on %d" % page_id)
            entry.writers = 0
        else:
            if entry.readers < 1:
                raise LatchError("shared release without readers on %d" % page_id)
            entry.readers -= 1
        woken = []
        while entry.pending:
            pending_mode, wakeup = entry.pending[0]
            if not entry.can_grant(pending_mode):
                break
            entry.pending.popleft()
            entry.grant(pending_mode)
            woken.append(wakeup)
        if entry.idle:
            del self._entries[page_id]
        simos.sem_post(self._mutex) or (yield)
        for wakeup in woken:
            simos.sem_post(wakeup) or (yield)

    def assert_quiescent(self):
        if self._entries:
            raise LatchError(
                "latches still held on pages %r" % sorted(self._entries)
            )
