"""Decision layer of the schedule fuzzer.

The simulation pins two sources of nondeterminism behind null-default
hooks: SimOS scheduling choices (which runnable thread a free core
dispatches, whether a CPU burst is preempted, which semaphore waiter a
post wakes) and NVMe completion timing (per-command service-time
perturbation).  This module supplies the two objects that drive those
hooks:

* :class:`ScheduleExplorer` — draws perturbations from one seeded
  stream of the experiment's :class:`~repro.sim.rng.RngRegistry` and
  records **every** consultation into a decision trace, so the trace
  is a complete transcript of the explored schedule.
* :class:`TraceDecider` — replays a recorded (possibly shrunk) trace;
  after a site's queue is exhausted it answers with the pinned default
  (FIFO head, quantum-boundary preemption, unperturbed timing), which
  is what makes greedy trace reduction sound.

The trace format is JSON-friendly: a list of ``[site, value]`` pairs
where ``site`` is one of ``pick`` / ``preempt`` / ``wakeup`` (index or
0/1 values) and ``io`` (a timing factor in permille, 1000 meaning
unchanged).  :class:`HookBinder` installs a decider onto a
simulated machine and restores every hook to ``None`` afterwards.
"""

from dataclasses import dataclass

from repro.errors import SchedulerError

SITE_PICK = "pick"
SITE_PREEMPT = "preempt"
SITE_WAKEUP = "wakeup"
SITE_IO = "io"

SITES = (SITE_PICK, SITE_PREEMPT, SITE_WAKEUP, SITE_IO)

PERMILLE = 1000
#: Probability of flipping a quantum-boundary preemption decision.
PREEMPT_RATE = 0.15
#: Bound of the relative service-time perturbation: a perturbed command
#: takes its service time times a factor drawn from [0.5, 1.5].
IO_JITTER_SPAN = 0.5


@dataclass(frozen=True)
class FuzzConfig:
    """Perturbation rates for one exploration run.

    Each field is a per-consultation probability in ``[0, 1]``.
    """

    pick_rate: float = 0.35
    wakeup_rate: float = 0.35
    io_jitter_rate: float = 0.6

    def __post_init__(self):
        for name in ("pick_rate", "wakeup_rate", "io_jitter_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise SchedulerError("%s %r outside [0, 1]" % (name, rate))


class ScheduleExplorer:
    """Random decider: perturbs schedules and transcribes every choice.

    ``rng`` is a ``random.Random`` obtained from the experiment's
    seeded :class:`~repro.sim.rng.RngRegistry` — the explorer never
    touches ambient randomness, so a (seed, config) pair names exactly
    one explored schedule.
    """

    def __init__(self, config, rng):
        self.config = config
        self.rng = rng
        self.trace = []

    def pick(self, n):
        """Index of the runnable to dispatch out of ``n`` (n >= 2)."""
        if self.rng.random() < self.config.pick_rate:
            index = self.rng.randrange(n)
        else:
            index = 0
        self.trace.append([SITE_PICK, index])
        return index

    def preempt(self, quantum_used_ns, quantum_ns):
        """Whether to preempt a thread after a CPU burst."""
        decision = quantum_used_ns >= quantum_ns
        if self.rng.random() < PREEMPT_RATE:
            decision = not decision
        self.trace.append([SITE_PREEMPT, int(decision)])
        return decision

    def wakeup(self, n):
        """Index of the waiter a sem_post wakes out of ``n`` (n >= 2)."""
        if self.rng.random() < self.config.wakeup_rate:
            index = self.rng.randrange(n)
        else:
            index = 0
        self.trace.append([SITE_WAKEUP, index])
        return index

    def io_service(self, service_ns):
        """Perturbed device service time for one command."""
        permille = PERMILLE
        if self.rng.random() < self.config.io_jitter_rate:
            factor = 1.0 + IO_JITTER_SPAN * (2.0 * self.rng.random() - 1.0)
            permille = max(int(round(PERMILLE * factor)), 1)
        self.trace.append([SITE_IO, permille])
        return service_ns * permille // PERMILLE


class TraceDecider:
    """Replays a recorded decision trace site by site.

    Decisions are consumed per-site in FIFO order; once a site's queue
    runs dry every later consultation gets the pinned default (index
    0, quantum-boundary preemption, factor 1000).  Replayed indices
    are clamped into the valid range so a shrunk trace whose context
    drifted (fewer runnables than when recorded) still replays instead
    of crashing.  ``consumed`` / ``defaulted`` counters and the
    re-recorded ``trace`` let tests assert replay fidelity.
    """

    def __init__(self, trace):
        self._queues = {site: [] for site in SITES}
        for entry in trace:
            site, value = entry[0], entry[1]
            if site not in self._queues:
                raise SchedulerError("unknown trace site %r" % (site,))
            self._queues[site].append(int(value))
        self._cursors = {site: 0 for site in SITES}
        self.consumed = 0
        self.defaulted = 0
        self.trace = []

    def _next(self, site, default):
        queue = self._queues[site]
        cursor = self._cursors[site]
        if cursor < len(queue):
            self._cursors[site] = cursor + 1
            self.consumed += 1
            return queue[cursor]
        self.defaulted += 1
        return default

    def pick(self, n):
        index = min(max(self._next(SITE_PICK, 0), 0), n - 1)
        self.trace.append([SITE_PICK, index])
        return index

    def preempt(self, quantum_used_ns, quantum_ns):
        default = int(quantum_used_ns >= quantum_ns)
        decision = bool(self._next(SITE_PREEMPT, default))
        self.trace.append([SITE_PREEMPT, int(decision)])
        return decision

    def wakeup(self, n):
        index = min(max(self._next(SITE_WAKEUP, 0), 0), n - 1)
        self.trace.append([SITE_WAKEUP, index])
        return index

    def io_service(self, service_ns):
        permille = max(self._next(SITE_IO, PERMILLE), 1)
        self.trace.append([SITE_IO, permille])
        return service_ns * permille // PERMILLE


class HookBinder:
    """Installs a decider onto a simulated machine's decision slots.

    A decision slot returns a value, so it has one owner: this refuses
    to overwrite one that is already bound (the harness owns them for
    the duration of a fuzz run; ``_install`` is their only writer) and
    restores every slot to ``None`` on :meth:`unbind` — also usable as
    a context manager.
    """

    def __init__(self, decider):
        self.decider = decider
        self._bound = []

    def bind(self, simos=None, devices=()):
        decider = self.decider
        if simos is not None:
            self._install(
                simos, "pick_runnable", lambda queue: decider.pick(len(queue))
            )
            self._install(
                simos,
                "preempt_policy",
                lambda thread, used_ns, quantum_ns: decider.preempt(
                    used_ns, quantum_ns
                ),
            )
            self._install(
                simos,
                "wakeup_pick",
                lambda waiters: decider.wakeup(len(waiters)),
            )
        for device in devices:
            self._install(
                device,
                "perturb_service",
                lambda command, service_ns: decider.io_service(service_ns),
            )
        return self

    def _install(self, obj, attr, fn):
        if getattr(obj, attr) is not None:
            raise SchedulerError(
                "hook %s.%s is already bound" % (type(obj).__name__, attr)
            )
        setattr(obj, attr, fn)
        self._bound.append((obj, attr))

    def unbind(self):
        while self._bound:
            obj, attr = self._bound.pop()
            setattr(obj, attr, None)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.unbind()
        return False
