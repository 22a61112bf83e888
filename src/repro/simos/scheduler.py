"""Multicore OS scheduler for simulated threads.

Models the costs the paper attributes to the traditional synchronous
execution paradigm: context switches when a core changes thread,
time-slice preemption under oversubscription, semaphore syscall cost
and wakeup latency.  The PA-Tree working thread runs on the same
scheduler but, because it never blocks, it incurs essentially none of
these costs — which is the paper's central claim, here made an exact
accounted quantity (Table I / Table II / Fig 9).
"""

from collections import deque

from repro.errors import SchedulerError, SimulationError
from repro.sim.clock import usec
from repro.sim.hooks import subscribe
from repro.sim.metrics import CPU_OTHER, CPU_SYNC, Counter, CpuAccount
from repro.simos.thread import (
    Cpu,
    SemPost,
    SemWait,
    SimThread,
    Sleep,
    T_BLOCKED,
    T_DONE,
    T_RUNNABLE,
    T_RUNNING,
    T_SLEEPING,
    YieldCpu,
)


class OsProfile:
    """Cost parameters of the simulated OS.

    Defaults model the paper's testbed: 8 physical cores, a few-us
    context switch, sub-us futex-style semaphore syscalls and a small
    wakeup latency; the time slice reflects scheduling granularity
    under heavy oversubscription.
    """

    __slots__ = (
        "cores",
        "context_switch_ns",
        "quantum_ns",
        "sem_syscall_ns",
        "wakeup_ns",
    )

    def __init__(
        self,
        cores=8,
        context_switch_ns=usec(3),
        quantum_ns=usec(200),
        sem_syscall_ns=usec(0.8),
        wakeup_ns=usec(2),
    ):
        if cores < 1:
            raise ValueError("need at least one core")
        # virtual time is an integer count of nanoseconds
        for name, value, least in (
            ("context_switch_ns", context_switch_ns, 0),
            ("quantum_ns", quantum_ns, 1),
            ("sem_syscall_ns", sem_syscall_ns, 0),
            ("wakeup_ns", wakeup_ns, 0),
        ):
            if type(value) is not int or value < least:
                raise ValueError(
                    "%s must be an int of at least %d ns, not %r"
                    % (name, least, value)
                )
        self.cores = cores
        self.context_switch_ns = context_switch_ns
        self.quantum_ns = quantum_ns
        self.sem_syscall_ns = sem_syscall_ns
        self.wakeup_ns = wakeup_ns


class Core:
    """One simulated CPU core."""

    __slots__ = ("index", "current", "last_tid", "busy_ns")

    def __init__(self, index):
        self.index = index
        self.current = None
        self.last_tid = None
        self.busy_ns = 0


class SimOS:
    """The simulated operating system: cores, run queue, semaphores."""

    def __init__(self, engine, profile=None):
        self.engine = engine
        self._clock = engine.clock
        self.profile = profile or OsProfile()
        self.cores = [Core(i) for i in range(self.profile.cores)]
        self._idle = list(reversed(self.cores))
        self.run_queue = deque()
        self.threads = []
        self.context_switches = Counter()
        self.preemptions = Counter()
        self.sem_blocks = Counter()
        self._next_tid = 0
        # True while spawn() steps a new thread from inside its caller,
        # which goes on at this instant: the clock must not move.
        self._spawning = False
        # The thread whose code is running, which cpu(), sem_wait() and
        # sem_post() charge: _step sets it on entry, spawn() restores it
        # around the nested step it makes, and the three calls restore
        # it once the events they ran through have stepped others.
        self._current = None
        # Observer slot (repro.sim.hooks): subscribers are called with
        # (thread, new_state) on every scheduling transition.  Must not
        # touch run queues or cores.
        self.on_thread_state = ()
        # Schedule-exploration hooks (repro.fuzz).  All three must stay
        # None outside fuzz runs so ordinary runs are bit-identical:
        # * pick_runnable(run_queue) -> index: which queued thread the
        #   next free core dispatches (default: FIFO head).  Only
        #   consulted when the queue holds a real choice (>= 2).
        # * preempt_policy(thread, quantum_used_ns, quantum_ns) -> bool:
        #   whether a thread is preempted after a CPU burst while others
        #   wait (default: quantum_used_ns >= quantum_ns).
        # * wakeup_pick(waiters) -> index: which blocked thread a
        #   sem_post wakes (default: FIFO head).  Only consulted when
        #   more than one thread waits.
        self.pick_runnable = None
        self.preempt_policy = None
        self.wakeup_pick = None
        # Threads a run_until_done() is still waiting for.
        self._awaited = set()
        # Stall guard: if the event queue drains while threads are
        # still blocked on semaphores, the run is deadlocked — raise a
        # typed error naming them instead of silently ending the run.
        subscribe(engine, "on_idle", self._check_stalled)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def spawn(self, gen, name="thread", group="default"):
        """Register a generator as a runnable simulated thread."""
        thread = SimThread(self._next_tid, name, group, gen)
        self._next_tid += 1
        self.threads.append(thread)
        outer, self._spawning = self._spawning, True
        current = self._current
        try:
            self._make_runnable(thread)
        finally:
            self._spawning = outer
            self._current = current
        return thread

    def cpu(self, ns, category=CPU_OTHER):
        """Charge a CPU burst of ``ns`` to the running thread, as a call.

        The rule behind ``yield Cpu(ns, category)``, which ``_step``
        serves by calling this.  Returns True when the burst went by in
        place and the thread goes on; False once its continuation is
        scheduled, after which the thread body must yield bare at once:
        ``cpu(ns, category) or (yield)``.  In place means without the
        heap: the clock simply moves when nothing is due first
        (``Engine.advance``), else the events due first run from
        here (``Engine.run_through``) and the preemption ``_after_cpu``
        would decide is decided at the burst's end.

        The burst is booked to the thread and its core right here, on
        every path.  A burst that ends within the kernel's cached
        in-place limit (``Engine.limit_ns``), while nobody waits for a
        core, no ``spawn()`` is stepping and no ``on_dispatch``
        subscriber is bound, then goes by with one clock move: what a
        step of ``Engine.advance`` would do.  One that ends past the
        kernel's horizon (``Engine.horizon_ns``), which ``advance``
        would decline, goes straight to ``run_through``.
        """
        if type(ns) is not int or ns <= 0:
            if ns < 0:
                raise ValueError("negative CPU burst: %r" % ns)
            ns = int(ns)
            if not ns:
                return True
        thread = self._current
        account = thread.account
        by_category = account.by_category
        if category not in by_category:
            category = CPU_OTHER
        by_category[category] += ns
        account.total_ns += ns
        thread.core.busy_ns += ns
        engine = self.engine
        if self._spawning:
            engine.schedule(ns, self._after_cpu, thread)
            return False
        if not self.run_queue:
            # nobody waits for the core, so _after_cpu would only resume
            # the thread: just move the clock if nothing is due first
            clock = self._clock
            if ns <= engine.limit_ns - clock.now and not engine.on_dispatch:
                engine.inlined += 1
                clock.now += ns
                return True
            if clock.now + ns <= engine.horizon_ns and engine.advance(ns):
                return True
        if not engine.run_through(ns, self._after_cpu, thread):
            return False
        self._current = thread
        if self.run_queue and self._preempt(thread):
            # queued -- unless a pick_runnable hook handed the core
            # straight back, and _dispatch_to left this body, which is
            # running, to go on (a Cpu instruction's it stepped already)
            return thread.core is not None and thread.gen.gi_running
        return True

    def cpu_repeat(self, ns, category, count):
        """Up to ``count`` back-to-back ``cpu(ns, category)`` bursts as one.

        Takes as many of them as would each have gone by in place, one
        after the other (possibly none), charges those to the running
        thread and returns their number; the caller issues whatever is
        left as ordinary bursts.  Never suspends the thread.
        """
        ns = int(ns)
        if ns <= 0:
            raise ValueError("repeated CPU burst must be positive: %r" % ns)
        if self.run_queue or self._spawning:
            return 0
        taken = self.engine.advance(ns, count)
        thread = self._current
        thread.account.charge(taken * ns, category)
        thread.core.busy_ns += taken * ns
        return taken

    def sem_wait(self, sem):
        """P on ``sem`` by the running thread, as a call.

        The rule behind ``yield SemWait(sem)``, with ``cpu``'s contract:
        the syscall is charged and, when it ends, the thread takes the
        semaphore and goes on (True) or blocks (False, its core handed
        on).  False too when the continuation, which takes it or blocks,
        is scheduled: ``sem_wait(sem) or (yield)``.
        """
        thread = self._current
        cost = self.profile.sem_syscall_ns
        thread.account.charge(cost, CPU_SYNC)
        thread.core.busy_ns += cost
        sem.wait_count += 1
        if self._spawning:
            self.engine.schedule(cost, self._sem_wait_cont, thread, sem)
            return False
        if not self.engine.run_through(cost, self._sem_wait_cont, thread, sem):
            return False
        self._current = thread
        if sem.try_acquire():
            return True
        self._block(thread, sem)
        return False

    def sem_post(self, sem):
        """V on ``sem`` by the running thread, as a call.

        The rule behind ``yield SemPost(sem)``, with ``cpu``'s contract:
        True when the syscall went by in place (the waiter it wakes, if
        any, is scheduled at the instant it ends), False once the
        continuation is scheduled: ``sem_post(sem) or (yield)``.
        """
        thread = self._current
        cost = self.profile.sem_syscall_ns
        thread.account.charge(cost, CPU_SYNC)
        thread.core.busy_ns += cost
        if self._spawning:
            self.engine.schedule(cost, self._sem_post_cont, thread, sem)
            return False
        if not self.engine.run_through(cost, self._sem_post_cont, thread, sem):
            return False
        self._current = thread
        self._post(sem)
        return True

    def run_until_done(self, threads, until_ns=None):
        """Run the engine until every one of ``threads`` has exited.

        Stops after the event in which the last of them turns done (or
        at ``until_ns``, as :meth:`Engine.run` does); dispatches nothing
        when all of them already are.  The caller checks ``done`` to
        tell the two apart.
        """
        awaited = self._awaited
        awaited.update(t for t in threads if not t.done)
        if not awaited:
            return
        try:
            self.engine.run(until_ns=until_ns)
        finally:
            awaited.clear()

    def live_threads(self):
        return [t for t in self.threads if not t.done]

    def total_busy_ns(self):
        """Total core-busy time (includes context-switch overhead)."""
        return sum(core.busy_ns for core in self.cores)

    def cores_used(self, since_busy_ns, since_time_ns):
        """Average number of cores busy since a snapshot.

        Callers snapshot ``total_busy_ns()`` and the clock at the start
        of a measurement window and pass both here at the end.
        """
        elapsed = self.engine.now - since_time_ns
        if elapsed <= 0:
            return 0.0
        return (self.total_busy_ns() - since_busy_ns) / elapsed

    def cpu_account(self, group=None):
        """Merged CPU ledger across threads, optionally one group."""
        merged = CpuAccount()
        for thread in self.threads:
            if group is None or thread.group == group:
                merged = merged.merged(thread.account)
        return merged

    # ------------------------------------------------------------------
    # scheduling internals
    # ------------------------------------------------------------------

    def _check_stalled(self):
        """Engine idle hook: a drained queue with blocked threads is a
        deadlock, not a finished run."""
        live = self.live_threads()
        if not live:
            return
        blocked = [t for t in live if t.state == T_BLOCKED]
        if blocked and len(blocked) == len(live):
            raise SchedulerError(
                "scheduler stalled: event queue drained with %d live "
                "thread(s) all blocked on semaphores: %s"
                % (
                    len(blocked),
                    ", ".join(
                        "%s (tid %d)" % (t.name, t.tid) for t in blocked
                    ),
                )
            )

    def _pop_runnable(self):
        """Dequeue the next thread to dispatch (FIFO unless fuzzing)."""
        queue = self.run_queue
        if self.pick_runnable is None or len(queue) == 1:
            return queue.popleft()
        index = self.pick_runnable(queue)
        if not 0 <= index < len(queue):
            raise SchedulerError(
                "pick_runnable index %d out of range for %d runnable(s)"
                % (index, len(queue))
            )
        if index == 0:
            return queue.popleft()
        thread = queue[index]
        del queue[index]
        return thread

    def _make_runnable(self, thread):
        thread.state = T_RUNNABLE
        if self.on_thread_state:
            for observer in self.on_thread_state:
                observer(thread, T_RUNNABLE)
        if self._idle:
            self._dispatch_to(self._idle.pop(), thread)
        else:
            self.run_queue.append(thread)

    def _release_core(self, thread):
        core = thread.core
        if core is None:
            raise SimulationError("%r not on a core" % thread)
        thread.core = None
        core.last_tid = thread.tid
        core.current = None
        if self.run_queue:
            self._dispatch_to(core, self._pop_runnable())
        else:
            self._idle.append(core)

    def _dispatch_to(self, core, thread):
        switching = core.last_tid is not None and core.last_tid != thread.tid
        core.current = thread
        thread.core = core
        thread.state = T_RUNNING
        if self.on_thread_state:
            for observer in self.on_thread_state:
                observer(thread, T_RUNNING)
        if switching:
            cs = self.profile.context_switch_ns
            self.context_switches.add()
            thread.account.charge(cs, CPU_OTHER)
            core.busy_ns += cs
            thread.quantum_start_ns = self._clock.now + cs
            self.engine.schedule(cs, self._step, thread)
        else:
            thread.quantum_start_ns = self._clock.now
            # a running body gets its core back only from its own burst's
            # preemption (pick_runnable's choice), and goes on from there
            if not thread.gen.gi_running:
                self._step(thread)

    def _finish(self, thread):
        thread.state = T_DONE
        if self._awaited:
            # the run ends with this event, and from this line on, not
            # from on_exit: _release_core below may step the next
            # thread, whose first burst must already see the stop
            self._awaited.discard(thread)
            if not self._awaited:
                self.engine.stop()
        if self.on_thread_state:
            for observer in self.on_thread_state:
                observer(thread, T_DONE)
        self._release_core(thread)
        callbacks = thread.on_exit
        thread.on_exit = []
        for callback in callbacks:
            callback(thread)

    def _step(self, thread):
        """Advance the generator, handling zero-cost instructions inline."""
        self._current = thread
        send = thread.gen.send
        while True:
            try:
                instr = send(None)
            except StopIteration:
                self._finish(thread)
                return
            if instr is None:
                # a cpu / sem_wait / sem_post call returned False: its
                # continuation is scheduled, or the thread left its core
                return

            # the instruction spellings of the three calls
            if type(instr) is Cpu:
                if self.cpu(instr.ns, instr.category):
                    continue
                return
            if type(instr) is SemWait:
                if self.sem_wait(instr.sem):
                    continue
                return
            if type(instr) is SemPost:
                if self.sem_post(instr.sem):
                    continue
                return

            if type(instr) is Sleep:
                thread.state = T_SLEEPING
                if self.on_thread_state:
                    for observer in self.on_thread_state:
                        observer(thread, T_SLEEPING)
                self._release_core(thread)
                self.engine.schedule(instr.ns, self._make_runnable, thread)
                return

            if type(instr) is YieldCpu:
                if self.run_queue:
                    thread.state = T_RUNNABLE
                    if self.on_thread_state:
                        for observer in self.on_thread_state:
                            observer(thread, T_RUNNABLE)
                    self.run_queue.append(thread)
                    self._release_core(thread)
                    return
                # with an empty run queue sched_yield keeps running
                continue

            raise SimulationError(
                "thread %r yielded unknown instruction %r" % (thread, instr)
            )

    def _after_cpu(self, thread):
        if not (self.run_queue and self._preempt(thread)):
            self._step(thread)

    def _preempt(self, thread):
        """At the end of a burst, with others queued: preempt the thread?

        True once it is preempted: queued behind them, its core handed
        on.  Preemption only matters when someone is waiting, so the
        hook is consulted (and a fuzz decision recorded) only then.
        """
        quantum_used = self._clock.now - thread.quantum_start_ns
        if self.preempt_policy is None:
            if quantum_used < self.profile.quantum_ns:
                return False
        elif not self.preempt_policy(
            thread, quantum_used, self.profile.quantum_ns
        ):
            return False
        self.preemptions.add()
        self.run_queue.append(thread)
        thread.state = T_RUNNABLE
        if self.on_thread_state:
            for observer in self.on_thread_state:
                observer(thread, T_RUNNABLE)
        self._release_core(thread)
        return True

    def _sem_wait_cont(self, thread, sem):
        if sem.try_acquire():
            self._step(thread)
        else:
            self._block(thread, sem)

    def _block(self, thread, sem):
        """Put the thread to sleep on ``sem`` and hand its core on."""
        sem.block_count += 1
        self.sem_blocks.add()
        sem.waiters.append(thread)
        thread.state = T_BLOCKED
        if self.on_thread_state:
            for observer in self.on_thread_state:
                observer(thread, T_BLOCKED)
        self._release_core(thread)

    def _sem_post_cont(self, thread, sem):
        self._post(sem)
        self._step(thread)

    def _post(self, sem):
        """What a post does once its syscall is over: wake one waiter
        (after the wakeup latency) or count up."""
        if sem.waiters:
            if self.wakeup_pick is None or len(sem.waiters) == 1:
                waiter = sem.pop_waiter(0)
            else:
                waiter = sem.pop_waiter(self.wakeup_pick(sem.waiters))
            self.engine.schedule(
                self.profile.wakeup_ns, self._make_runnable, waiter
            )
        else:
            sem.count += 1


DEFAULT_OS_PROFILE = OsProfile()


def paper_testbed_profile():
    """The 8-core EC2 i3.2xlarge-like profile used throughout."""
    return OsProfile(
        cores=8,
        context_switch_ns=usec(3),
        quantum_ns=usec(200),
        sem_syscall_ns=usec(0.8),
        wakeup_ns=usec(2),
    )
