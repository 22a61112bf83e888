"""Simulated threads.

A simulated thread is a Python generator the OS scheduler steps.  It
consumes virtual CPU time, waits on and posts semaphores, sleeps, or
yields the core.  Plain Python work inside the
generator costs zero virtual time — the thread body must charge the
time it models as CPU bursts, which is what lets us account CPU by
category for the paper's Fig 9 breakdown.

A thread body yields only where another thread may run.  A CPU burst
and a semaphore syscall are calls on the OS, each with one rule
(:meth:`repro.simos.scheduler.SimOS.cpu`, ``sem_wait``, ``sem_post``):
the call returns True when its step went by in place and the body
simply goes on, and False when the body must yield bare at once —
``cpu(ns, category) or (yield)``, ``sem_wait(sem) or (yield)`` —
because its continuation is scheduled, or because the thread blocked or
was preempted when the step ended and the OS resumes it later.  In
place includes running, from inside the call, the events due before
the step ends (``Engine.run_through``): other threads may run there,
but the calling thread keeps its core throughout.  ``SimOS.cpu_repeat`` takes a
run of equal bursts in one call.  Every body in ``repro`` spells them
so; the polled workers bind ``simos.cpu`` once, the blocking baselines
reach the OS through their per-thread I/O handle (``tls.simos``).

What is still yielded is an instruction: :class:`Sleep` and
:class:`YieldCpu`, which always leave or may leave the core.
:class:`Cpu`, :class:`SemWait` and :class:`SemPost` are the instruction
spellings of the three calls, which ``_step`` serves by making the
call; ``repro`` yields none of them (a tier-1 test walks its source),
only tests and the perf micro-benchmark still do.

Example
-------
::

    def body(simos, latch_sem):
        cpu = simos.cpu
        cpu(usec(1.2), CPU_REAL_WORK) or (yield)  # 1.2 us of index work
        simos.sem_wait(latch_sem) or (yield)      # block until granted
        cpu(usec(0.5), CPU_REAL_WORK) or (yield)
        simos.sem_post(latch_sem) or (yield)
        yield Sleep(usec(20))                     # off the core

    simos.spawn(body(simos, latch_sem), name="worker-0")
"""

from repro.sim.metrics import CPU_OTHER, CpuAccount


class Instruction:
    """Base class for everything a thread generator may yield."""

    __slots__ = ()


class Cpu(Instruction):
    """Consume ``ns`` of CPU time, accounted to ``category``."""

    __slots__ = ("ns", "category")

    def __init__(self, ns, category=CPU_OTHER):
        if ns < 0:
            raise ValueError("negative CPU burst: %r" % ns)
        self.ns = int(ns)
        self.category = category


class Sleep(Instruction):
    """Leave the core and become runnable again after ``ns``."""

    __slots__ = ("ns",)

    def __init__(self, ns):
        if ns < 0:
            raise ValueError("negative sleep: %r" % ns)
        self.ns = int(ns)


class YieldCpu(Instruction):
    """Voluntarily go to the back of the run queue (sched_yield)."""

    __slots__ = ()


class SemWait(Instruction):
    """P / wait on a semaphore; blocks if the count is zero."""

    __slots__ = ("sem",)

    def __init__(self, sem):
        self.sem = sem


class SemPost(Instruction):
    """V / post on a semaphore; wakes one waiter if any."""

    __slots__ = ("sem",)

    def __init__(self, sem):
        self.sem = sem


# Thread lifecycle states.
T_RUNNABLE = "runnable"
T_RUNNING = "running"
T_BLOCKED = "blocked"
T_SLEEPING = "sleeping"
T_DONE = "done"


class SimThread:
    """Bookkeeping for one simulated thread.

    Created via :meth:`repro.simos.scheduler.SimOS.spawn`; user code
    only supplies the generator.
    """

    __slots__ = (
        "tid",
        "name",
        "group",
        "gen",
        "state",
        "core",
        "account",
        "quantum_start_ns",
        "on_exit",
        "exc",
    )

    def __init__(self, tid, name, group, gen):
        self.tid = tid
        self.name = name
        self.group = group
        self.gen = gen
        self.state = T_RUNNABLE
        self.core = None
        self.account = CpuAccount()
        self.quantum_start_ns = 0
        self.on_exit = []
        self.exc = None

    @property
    def done(self):
        return self.state == T_DONE

    def __repr__(self):
        return "SimThread(%d, %r, %s)" % (self.tid, self.name, self.state)
