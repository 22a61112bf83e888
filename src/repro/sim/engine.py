"""The discrete-event simulation kernel.

A minimal, deterministic event loop: components schedule callbacks at
future virtual times; :meth:`Engine.run` pops them in time order and
advances the clock.  Everything else in the reproduction — the OS
model, the NVMe device, the PA-Tree working thread — is built from
callbacks on this kernel.
"""

from heapq import heappop, heappush

from repro.errors import SimulationError
from repro.sim.clock import Clock
from repro.sim.events import EventQueue
from repro.sim.rng import RngRegistry

# run()'s bound is an instant: every entry at it is before it
_LAST_SEQ = float("inf")


class Engine:
    """Discrete-event simulation engine.

    Parameters
    ----------
    seed:
        Root seed for all random streams in the simulation.
    max_events:
        Safety valve: the engine raises :class:`SimulationError` after
        this many dispatched events, catching accidental infinite loops
        (e.g. a polling thread that never yields virtual time).
    """

    def __init__(self, seed=0, max_events=500_000_000):
        self.clock = Clock()
        self.events = EventQueue()
        self.rng = RngRegistry(seed)
        self.max_events = max_events
        self.dispatched = 0
        # Delays advance / run_through took in place of a heap round
        # trip: dispatched + inlined is what the same run dispatches with
        # an on_dispatch subscriber, and what max_events bounds.
        self.inlined = 0
        self._running = False
        self._stopped = False
        # The last instant the clock may reach in place: run()'s time
        # bound, -1 outside run() and after stop() (nothing advances),
        # and just short of an enclosing run_through's slot.  Only the
        # kernel sets it; SimOS.cpu reads it to send a burst that ends
        # past it, which advance() declines, straight to run_through.
        self.horizon_ns = -1
        # the queue's own heap list, to peek at its head without
        # dropping dead entries
        self._heap = self.events._heap
        self._passive = self.events._passive
        # (time, seq) of the running continuation, for settle(): the
        # entry _dispatch_before dispatched last, or the slot a
        # run_through went on in (two ints: nothing to allocate)
        self._slot_ns = self._slot_seq = -1
        # The last instant the clock may reach in place, as advance()
        # last computed it, so that SimOS.cpu can spend it with one
        # comparison: min(heap head - 1, horizon, now + the max_events
        # budget left).  A push at or before it lowers it, and it is -1
        # (nothing fits) before every dispatched callback, after every
        # run_through, on stop() and when run() ends.  Nothing caches it
        # while a subscriber is bound (SimOS.cpu also tests on_dispatch,
        # which a callback may subscribe after the limit was cached).
        self.limit_ns = -1
        # Observer slot (repro.sim.hooks): each subscriber is called with
        # every entry just before its callback runs.  Must not schedule,
        # cancel, or advance time.
        self.on_dispatch = ()
        # Observer slot: called once when the event queue drains while
        # a run() is still looking for work.  SimOS subscribes its stall
        # guard here so a drained queue with blocked threads raises a
        # typed error instead of silently ending the run.
        self.on_idle = ()

    @property
    def now(self):
        return self.clock.now

    def schedule(self, delay_ns, fn, *args):
        """Run ``fn(*args)`` after ``delay_ns`` nanoseconds of virtual time.

        Returns an opaque handle, good only for :meth:`cancel`.
        """
        if delay_ns < 0:
            raise SimulationError("negative delay: %r" % delay_ns)
        time_ns = self.clock.now + int(delay_ns)
        if time_ns <= self.limit_ns:
            self.limit_ns = time_ns - 1
        return self.events.push(time_ns, fn, args)

    def schedule_at(self, time_ns, fn, *args):
        """Run ``fn(*args)`` at absolute virtual time ``time_ns``."""
        if time_ns < self.clock.now:
            raise SimulationError(
                "scheduling in the past: %d < %d" % (time_ns, self.clock.now)
            )
        time_ns = int(time_ns)
        if time_ns <= self.limit_ns:
            self.limit_ns = time_ns - 1
        return self.events.push(time_ns, fn, args)

    def schedule_passive_at(self, time_ns, fn, *args):
        """Make ``fn(*args)`` take effect at ``time_ns`` with no event.

        The entry takes its ``(time, seq)`` slot as :meth:`schedule_at`
        would, but the dispatch loop never pops it and it bounds nothing
        in place: :meth:`settle`, called by whoever reads the state
        ``fn`` changes, applies it.  ``fn`` must only change that
        state: schedule, cancel and advance nothing.
        """
        if time_ns < self.clock.now:
            raise SimulationError(
                "scheduling in the past: %d < %d" % (time_ns, self.clock.now)
            )
        heappush(
            self._passive, [int(time_ns), self.events.reserve(), fn, args]
        )

    def settle(self):
        """Apply every passive entry ordered before the running
        continuation, each with the clock at its own instant.

        The continuation's slot is the ``(time, seq)`` of the entry
        dispatched last, or of the run-through that went on last; a
        clock past that time means an in-place step moved on since,
        which orders the continuation after every seq taken so far.
        Each entry applied counts as ``inlined``.
        """
        passive = self._passive
        if passive:
            now = self.clock.now
            if passive[0][0] <= now:
                self._apply_passive(
                    now, _LAST_SEQ if now > self._slot_ns else self._slot_seq
                )

    def next_passive_ns(self):
        """Time of the next passive entry, or ``None`` with none."""
        passive = self._passive
        return passive[0][0] if passive else None

    def _apply_passive(self, time_ns, seq):
        """Apply the passive entries ordered before ``(time_ns, seq)``;
        returns the time of the last one (-1 for none).  The clock is
        left where it was."""
        passive = self._passive
        clock = self.clock
        now = clock.now
        last_ns = -1
        while passive:
            entry = passive[0]
            event_ns = entry[0]
            if event_ns > time_ns or (event_ns == time_ns and entry[1] > seq):
                break
            heappop(passive)
            clock.now = last_ns = event_ns
            self.inlined += 1
            entry[2](*entry[3])
        clock.now = now
        return last_ns

    def cancel(self, handle):
        """Keep a scheduled callback from running; a no-op once it ran."""
        self.events.cancel(handle)

    def stop(self):
        """Make the current run() return once the running callback does.

        From here to that return nothing advances in place either:
        advance and run_through refuse, and a run_through in progress
        pushes its entry and returns False.  Outside run() it does
        nothing that the next run() sees.
        """
        self._stopped = True
        self.horizon_ns = self.limit_ns = -1

    def advance(self, step_ns, count=1):
        """Take up to ``count`` (at least 1) steps of ``step_ns`` in place.

        For a caller about to end its event callback with
        ``schedule(step_ns, fn)``, where ``fn`` would go on as the
        caller does, ``count`` times in a row.  Returns the number
        ``n`` of those steps that nothing could run before: the clock
        moves ``n * step_ns`` and each step counts as ``inlined``; 0
        changes nothing, and the caller schedules as usual.  A step
        may end no later than :attr:`limit_ns`, which this computes
        and caches: just short of the heap head (a tie goes through the
        heap, which keeps sequence order; a cancelled head only makes
        this conservative), no later than the horizon, and within the
        ``max_events`` budget left, each step taking at least 1 ns.
        Refuses while an ``on_dispatch`` subscriber is bound.
        """
        if self.on_dispatch:
            return 0
        clock = self.clock
        now = clock.now
        limit_ns = now + self.max_events - self.dispatched - self.inlined
        heap = self._heap
        if heap and heap[0][0] <= limit_ns:
            limit_ns = heap[0][0] - 1
        if self.horizon_ns < limit_ns:
            limit_ns = self.horizon_ns
        self.limit_ns = limit_ns
        if now + step_ns > limit_ns:
            return 0
        if count > 1:
            count = min(count, int((limit_ns - now) // step_ns))
        self.inlined += count
        clock.now = now + count * step_ns
        return count

    def run_through(self, delay_ns, fn, *args):
        """``schedule(delay_ns, fn, *args)`` for a callback's own
        continuation, taken in place: run what is due first, then go on.

        For a caller about to end its event callback with that
        ``schedule``, where ``fn`` would only go on with what the caller
        was doing; ``delay_ns`` is an int, at least 0.  Refused first,
        before anything else, when ``now + delay_ns`` lies past
        :attr:`horizon_ns` or an ``on_dispatch`` subscriber is bound:
        the entry is pushed as ``schedule`` would push it (a time at or
        before :attr:`limit_ns` lowers that) and False returned.
        Otherwise the entry's sequence number is reserved and every
        entry ordered before ``(now + delay_ns, seq)`` is dispatched
        here, as :meth:`run` would, with the horizon lowered to just
        short of that slot.  If ``stop()`` ends the run first, the
        entry is pushed in its slot (False); else the clock moves to its
        time and it counts as ``inlined`` (True: go on as ``fn`` would).
        """
        clock = self.clock
        time_ns = clock.now + delay_ns
        horizon_ns = self.horizon_ns
        if time_ns > horizon_ns or self.on_dispatch:
            if time_ns <= self.limit_ns:
                self.limit_ns = time_ns - 1
            self.events.push(time_ns, fn, args)
            return False
        seq = self.events.reserve()
        self.horizon_ns = time_ns - 1
        try:
            went_on = self._dispatch_before(time_ns, seq)
        finally:
            self.limit_ns = -1
            if not self._stopped:
                self.horizon_ns = horizon_ns
        if not went_on:
            heappush(self._heap, [time_ns, seq, fn, args])
            return False
        self.inlined += 1
        if self.dispatched + self.inlined > self.max_events:
            self._over_budget()
        clock.now = time_ns
        self._slot_ns = time_ns
        self._slot_seq = seq
        return True

    def _over_budget(self):
        raise SimulationError(
            "event budget exceeded (%d); likely a livelock" % self.max_events
        )

    def run(self, until_ns=None):
        """Dispatch events until a stop condition.

        ``until_ns``: stop once the clock would pass this time (the
        clock is left at ``until_ns``).  :meth:`stop`, called from a
        callback, ends the run after that callback.  With neither, runs
        until the event queue drains.  Passive entries within the bound
        are applied before it returns: those ordered before the
        stopping callback's slot, those up to and including
        ``until_ns``, or all of them, the clock ending at the last.
        """
        if self._running:
            raise SimulationError("Engine.run is not reentrant")
        self._running = True
        self._stopped = False
        horizon_ns = self.horizon_ns = (
            float("inf") if until_ns is None else until_ns
        )
        clock = self.clock
        heap = self._heap
        passive = self._passive
        try:
            while self._dispatch_before(horizon_ns, _LAST_SEQ):
                last_ns = self._apply_passive(horizon_ns, _LAST_SEQ)
                if heap or passive:
                    # the head lies beyond until_ns
                    clock.advance_to(until_ns)
                    return
                if last_ns > clock.now:
                    clock.now = last_ns
                # an idle observer may raise (stall guard) or schedule
                # wrap-up work; re-check the queue afterwards
                for observer in self.on_idle:
                    observer()
                if not self.events.drop_dead():
                    if until_ns is not None and until_ns > clock.now:
                        clock.advance_to(until_ns)
                    return
            self.settle()
        finally:
            self._running = False
            self.horizon_ns = self.limit_ns = -1

    def _dispatch_before(self, time_ns, seq):
        """Dispatch every live entry ordered before ``(time_ns, seq)``.

        The one event loop, :meth:`run`'s and :meth:`run_through`'s:
        before every event it asks whether ``stop()`` ended the run
        (False), then drops dead heads; it returns True when the heap is
        drained or its head is not before the bound.  Each entry it
        dispatches is the running continuation's slot for
        :meth:`settle`.
        """
        clock = self.clock
        heap = self._heap
        while not self._stopped:
            if heap and heap[0][2] is None:
                self.events.drop_dead()
            if not heap:
                return True
            entry = heap[0]
            event_ns = entry[0]
            if event_ns > time_ns or (event_ns == time_ns and entry[1] > seq):
                return True
            heappop(heap)
            fn = entry[2]
            args = entry[3]
            entry[2] = None
            if event_ns < clock.now:
                # a corrupted queue must raise, not run backwards
                clock.advance_to(event_ns)
            clock.now = event_ns
            self.dispatched += 1
            if self.on_dispatch:
                for observer in self.on_dispatch:
                    observer(entry)
            if self.dispatched + self.inlined > self.max_events:
                self._over_budget()
            self.limit_ns = -1
            self._slot_ns = event_ns
            self._slot_seq = entry[1]
            fn(*args)
        return False

    def run_for(self, duration_ns):
        """Run for ``duration_ns`` of virtual time from now."""
        self.run(until_ns=self.clock.now + duration_ns)
