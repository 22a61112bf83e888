"""Event queue for the discrete-event kernel.

A binary heap of ``(time, sequence, Event)`` entries.  The sequence
number breaks ties so that events scheduled at the same instant fire in
scheduling order, which keeps runs deterministic.

Cancellation is lazy: :meth:`Event.cancel` marks the entry dead and the
heap skips it on pop.  This is the standard approach (also used by
``sched`` and asyncio) and keeps cancellation O(1).
"""

import heapq


class Event:
    """A scheduled callback.  Returned by :meth:`EventQueue.push`."""

    __slots__ = ("time", "seq", "fn", "cancelled", "fired")

    def __init__(self, time, seq, fn):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.cancelled = False
        self.fired = False

    def cancel(self):
        """Prevent the event from firing.  Safe to call repeatedly."""
        self.cancelled = True
        self.fn = None

    def __lt__(self, other):
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self):
        state = "cancelled" if self.cancelled else "pending"
        if self.fired:
            state = "fired"
        return "Event(t=%d, seq=%d, %s)" % (self.time, self.seq, state)


class EventQueue:
    """Deterministic min-heap of events."""

    def __init__(self):
        self._heap = []
        self._seq = 0
        self._live = 0

    def __len__(self):
        return self._live

    def __bool__(self):
        return self._live > 0

    def push(self, time, fn):
        """Schedule ``fn`` to fire at virtual time ``time`` (ns)."""
        event = Event(time, self._seq, fn)
        self._seq += 1
        self._live += 1
        heapq.heappush(self._heap, event)
        return event

    def cancel(self, event):
        """Cancel a previously pushed event; a no-op once it has fired."""
        if not (event.cancelled or event.fired):
            event.cancel()
            self._live -= 1

    def peek_time(self):
        """Time of the next live event, or ``None`` if the queue is empty."""
        self._drop_dead()
        if not self._heap:
            return None
        return self._heap[0].time

    def pop(self):
        """Remove and return the next live event, or ``None``."""
        self._drop_dead()
        if not self._heap:
            return None
        self._live -= 1
        event = heapq.heappop(self._heap)
        event.fired = True
        return event

    def _drop_dead(self):
        heap = self._heap
        while heap and heap[0].cancelled:
            heapq.heappop(heap)
