"""Operation latches (paper §III-B).

A latch is a logical flag an *operation* (not a thread) holds on a tree
node.  The PA-Tree working thread grants and releases latches itself,
so no inter-thread synchronization is involved; blocked operations
simply sit in a per-node FIFO pending queue until the working thread
releases a conflicting latch and drains the queue front-to-tail.

Grant rules (first-request-first-grant, no barging past the queue):

* exclusive: granted when ``r == 0 and w == 0`` and no earlier waiter,
* shared: granted when ``w == 0`` and no earlier waiter.
"""

from collections import deque

from repro.errors import LatchError

SHARED = "S"
EXCLUSIVE = "X"


class _LatchEntry:
    __slots__ = ("readers", "writers", "pending")

    def __init__(self, readers, writers):
        self.readers = readers
        self.writers = writers
        # FIFO of (mode, op), allocated by the first request that waits
        self.pending = None

    def can_grant(self, mode):
        if mode == EXCLUSIVE:
            return self.readers == 0 and self.writers == 0
        return self.writers == 0


class LatchTable:
    """Per-page latch state for one tree, driven by the working thread."""

    def __init__(self):
        self._entries = {}
        self.grants = 0
        self.waits = 0

    def request(self, op, page_id, mode):
        """Try to grant ``mode`` on ``page_id`` to ``op``.

        Returns True and records the hold on success; otherwise queues
        the request (the operation enters its latch-wait state) and
        returns False.
        """
        if mode not in (SHARED, EXCLUSIVE):
            raise LatchError("unknown latch mode %r" % (mode,))
        if page_id in op.held_latches:
            raise LatchError(
                "op %r already holds a latch on page %d" % (op, page_id)
            )
        entry = self._entries.get(page_id)
        if entry is None:
            # uncontended, the common case: granted inline
            if mode == EXCLUSIVE:
                self._entries[page_id] = _LatchEntry(0, 1)
                op.write_latches += 1
            else:
                self._entries[page_id] = _LatchEntry(1, 0)
            op.held_latches[page_id] = mode
            self.grants += 1
            return True
        if not entry.pending and entry.can_grant(mode):
            self._grant(op, page_id, entry, mode)
            return True
        if entry.pending is None:
            entry.pending = deque()
        entry.pending.append((mode, op))
        self.waits += 1
        return False

    def release(self, op, page_id):
        """Release ``op``'s latch on ``page_id``.

        Returns the list of operations whose queued requests became
        granted; the caller moves them back to the ready set.
        """
        mode = op.held_latches.pop(page_id, None)
        if mode is None:
            raise LatchError("op %r holds no latch on page %d" % (op, page_id))
        entry = self._entries.get(page_id)
        if entry is None:
            raise LatchError("no latch entry for page %d" % page_id)
        if mode == EXCLUSIVE:
            if entry.writers != 1:
                raise LatchError("exclusive release without writer on %d" % page_id)
            entry.writers = 0
            op.write_latches -= 1
        else:
            if entry.readers < 1:
                raise LatchError("shared release without readers on %d" % page_id)
            entry.readers -= 1
        if entry.pending:
            # the head is granted, or it waits for a hold that remains:
            # either way the entry stays
            return self._drain(page_id, entry)
        if entry.readers == 0 and entry.writers == 0:
            del self._entries[page_id]
        return []

    def _drain(self, page_id, entry):
        woken = []
        while entry.pending:
            mode, waiter = entry.pending[0]
            if not entry.can_grant(mode):
                break
            entry.pending.popleft()
            self._grant(waiter, page_id, entry, mode)
            woken.append(waiter)
        return woken

    def _grant(self, op, page_id, entry, mode):
        if mode == EXCLUSIVE:
            entry.writers += 1
            op.write_latches += 1
        else:
            entry.readers += 1
        op.held_latches[page_id] = mode
        self.grants += 1

    def release_many(self, op, page_ids):
        """Release several of ``op``'s latches in one amortized step.

        Used by the batch plan to drop a whole retained descent path at
        once.  Returns the concatenated woken-operation lists in page
        order, preserving each pending queue's FIFO fairness.
        """
        woken = []
        for page_id in page_ids:
            woken.extend(self.release(op, page_id))
        return woken

    # ------------------------------------------------------------------
    # introspection (tests / stats)
    # ------------------------------------------------------------------

    def register_metrics(self, registry, labels=None):
        """Expose latch contention counters through a metric registry."""
        registry.counter(
            "latch_grants_total", labels,
            fn=lambda: self.grants,
            help="latch requests granted",
        )
        registry.counter(
            "latch_waits_total", labels,
            fn=lambda: self.waits,
            help="latch requests queued behind a conflicting hold",
        )
        registry.gauge(
            "latch_held_pages", labels,
            fn=lambda: len(self._entries),
            help="pages with at least one latch held or pending",
        )
        registry.gauge(
            "latch_pending_ops", labels,
            fn=lambda: sum(
                len(entry.pending or ()) for entry in self._entries.values()
            ),
            help="operations waiting in latch pending queues",
        )
        return registry

    def holders(self, page_id):
        entry = self._entries.get(page_id)
        if entry is None:
            return (0, 0, 0)
        return (entry.readers, entry.writers, len(entry.pending or ()))

    def assert_quiescent(self):
        """Raise unless no latch is held anywhere (end-of-run check)."""
        if self._entries:
            raise LatchError(
                "latches still held on pages %r" % sorted(self._entries)
            )
