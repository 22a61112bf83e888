"""Synchronization primitives for simulated threads.

Counting semaphores with the cost structure the paper attributes to
``sem_wait`` / ``sem_post``: each call pays a syscall-sized CPU burst,
and waking a blocked thread pays a wakeup latency before the thread
re-enters the run queue.  A mutex is a semaphore initialised to one.
"""

from collections import deque

from repro.errors import SchedulerError


class Semaphore:
    """Counting semaphore.

    The scheduler drives all state changes; thread code only calls
    :meth:`~repro.simos.scheduler.SimOS.sem_wait` / ``sem_post`` on it
    (``sem_wait(sem) or (yield)``), which run the events due before the
    syscall ends from inside the call and then take the unit, block or
    post in place.

    ``waiters`` is an explicit FIFO: blocked threads are appended at the
    tail and, by default, woken from the head in arrival order.  That
    order is a documented contract (asserted by
    :meth:`pop_waiter` and regression-tested), not an accident of the
    underlying deque — schedule-exploration runs reorder wakeups only
    through the scheduler's explicit ``wakeup_pick`` hook.
    """

    __slots__ = ("count", "waiters", "name", "wait_count", "block_count")

    def __init__(self, initial=0, name="sem"):
        if initial < 0:
            raise ValueError("negative initial semaphore count")
        self.count = initial
        self.waiters = deque()
        self.name = name
        self.wait_count = 0
        self.block_count = 0

    def try_acquire(self):
        """Non-blocking P; returns True on success (scheduler use)."""
        if self.count > 0:
            self.count -= 1
            return True
        return False

    def pop_waiter(self, index=0):
        """Remove and return the waiter at ``index`` (default: FIFO head).

        The scheduler's only way to dequeue a blocked thread.  Index 0
        is the arrival-order (FIFO) wakeup every normal run uses; a
        nonzero index is only ever chosen by the schedule-exploration
        ``wakeup_pick`` hook.  An out-of-range index is a scheduler bug
        and raises :class:`~repro.errors.SchedulerError`.
        """
        if not 0 <= index < len(self.waiters):
            raise SchedulerError(
                "wakeup index %d out of range for %d waiter(s) on %r"
                % (index, len(self.waiters), self.name)
            )
        if index == 0:
            return self.waiters.popleft()
        waiter = self.waiters[index]
        del self.waiters[index]
        return waiter

    def __repr__(self):
        return "Semaphore(%r, count=%d, waiters=%d)" % (
            self.name,
            self.count,
            len(self.waiters),
        )


class Mutex(Semaphore):
    """Binary semaphore used for critical sections in the baselines."""

    def __init__(self, name="mutex"):
        super().__init__(initial=1, name=name)
