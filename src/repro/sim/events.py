"""Event queue for the discrete-event kernel.

A binary heap of plain ``[time, seq, fn, args]`` lists, which ``heapq``
compares in C: by time, then by the sequence number that makes events
scheduled for the same instant fire in scheduling order.  ``seq`` is
unique, so a comparison never reaches ``fn``.

The entry is also the handle :meth:`EventQueue.push` returns; callers
keep it only to pass it back to :meth:`EventQueue.cancel`.  ``fn``
(``entry[2]``) is ``None`` once the entry has fired or been cancelled.
Cancellation is lazy (as in ``sched`` and asyncio): the entry is marked
dead in place, which is O(1), and whoever next looks at the head of the
heap drops it.

Passive entries (``Engine.schedule_passive_at``) sit in a second heap of
the same lists: the dispatch loop never pops them, whoever reads the
state they change applies them (``Engine.settle``), and they are never
cancelled.
"""

from heapq import heappop, heappush


class EventQueue:
    """Deterministic min-heap of events."""

    def __init__(self):
        self._heap = []
        self._passive = []
        self._seq = 0
        # cancelled entries still in the heap
        self._dead = 0

    def __len__(self):
        return len(self._heap) - self._dead + len(self._passive)

    def push(self, time, fn, args=()):
        """Schedule ``fn(*args)`` to fire at virtual time ``time`` (ns)."""
        entry = [time, self._seq, fn, args]
        self._seq += 1
        heappush(self._heap, entry)
        return entry

    def reserve(self):
        """Take the sequence number the next push would get.

        For an entry its owner may push later, straight into the heap,
        in the slot it would have had if pushed now (or never push).
        """
        seq = self._seq
        self._seq = seq + 1
        return seq

    def cancel(self, entry):
        """Cancel a pushed entry; a no-op once it fired or was cancelled."""
        if entry[2] is not None:
            entry[2] = None
            entry[3] = ()
            self._dead += 1

    def peek_time(self):
        """Time of the next live or passive entry, or ``None`` if the
        queue is empty."""
        heap = self.drop_dead()
        passive = self._passive
        if not heap:
            return passive[0][0] if passive else None
        if passive and passive[0][0] < heap[0][0]:
            return passive[0][0]
        return heap[0][0]

    def drop_dead(self):
        """Pop cancelled entries off the head; returns the heap list."""
        heap = self._heap
        while heap and heap[0][2] is None:
            heappop(heap)
            self._dead -= 1
        return heap
