"""Simulated threads.

A simulated thread is a Python generator that yields *instructions* to
the OS scheduler.  Instructions consume virtual CPU time, block on
semaphores, sleep, or yield the core.  Plain Python work inside the
generator costs zero virtual time — the thread body must charge the
time it models as CPU bursts, which is what lets us account CPU by
category for the paper's Fig 9 breakdown.

A burst has two spellings with one rule behind them
(:meth:`repro.simos.scheduler.SimOS.cpu`).  The instruction,
``yield Cpu(ns, category)``, is for thread bodies that are rarely
alone on a core: the synchronous baselines, the I/O services, tests.
The call, ``cpu(ns, category) or (yield)``, is for the polled workers
(``repro.core.worker``, ``repro.core.engine``, ``repro.palsm.worker``),
which usually are alone and take most bursts in place: ``cpu`` returns
True when the clock went by in place and the body simply goes on, and
False once the continuation is scheduled, after which the body must
yield bare at once.  ``SimOS.cpu_repeat`` takes a run of equal bursts
in one call.

Example
-------
::

    def body(os):
        yield Cpu(usec(1.2), CPU_REAL_WORK)   # 1.2 us of index work
        yield SemWait(latch_sem)               # block until granted
        yield Cpu(usec(0.5), CPU_REAL_WORK)

    def polled_body(os):
        cpu = os.cpu
        while True:
            cpu(usec(0.5), CPU_NVME) or (yield)  # probe
            ...

    os.spawn(body(os), name="worker-0")
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
