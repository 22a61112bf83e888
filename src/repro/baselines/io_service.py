"""Blocking I/O paradigms for the synchronous baselines (paper §V-A).

* :class:`DedicatedIoService` — every working thread owns a queue
  pair; after submitting it spin-polls its own completion queue with a
  short pause between probes.  High CPU burn, frequent device probes.
* :class:`SharedIoService` — working threads push requests onto a
  global queue and block on a per-request semaphore; one daemon thread
  submits everything through a single queue pair, probes continuously,
  and posts the semaphores of completed requests.  Lower probe
  pressure per worker but two thread hops (block + wakeup) per I/O.

Both expose generator-style ``read``/``write`` that block the calling
simulated thread until the I/O completes — the synchronous paradigm
whose costs the paper measures against PA-Tree.

Both branch on the completion status: a failed *write* is re-driven
inline (the blocking caller is already waiting, so escalation is just
another submit) up to a bounded budget; a failed *read* — or a write
that exhausts the budget — raises the typed
:class:`~repro.errors.IoError` to the calling thread.
"""

from collections import deque

from repro.errors import IoError, RetryExhaustedError, SimulationError
from repro.nvme.command import OP_READ, OP_WRITE
from repro.sim.clock import usec
from repro.sim.metrics import CPU_NVME, CPU_OTHER
from repro.simos.sync import Mutex, Semaphore
from repro.simos.thread import Sleep

_MAX_WRITE_ESCALATIONS = 8


def _io_error(completion):
    """Typed exception for a completion delivered with a failure status."""
    command = completion.command
    status = completion.status
    cls = RetryExhaustedError if status.retriable else IoError
    return cls(
        "%s of lba %d failed with status %s (retries=%d)"
        % (command.opcode, command.lba, status, command.retries),
        status=status,
        opcode=command.opcode,
        lba=command.lba,
    )


class _ThreadIoState:
    """Per-worker-thread state: the OS its blocking calls go to
    (``simos.cpu`` / ``sem_wait`` / ``sem_post``) and, dedicated, its own
    queue pair."""

    __slots__ = ("simos", "qpair")

    def __init__(self, simos, qpair=None):
        self.simos = simos
        self.qpair = qpair


class DedicatedIoService:
    """Per-thread queue pair with polled completion.

    ``pause_mode='spin'`` burns CPU between probes (reproduces the
    paper's Table I: high CPU consumption for the dedicated approach);
    ``pause_mode='sleep'`` blocks between probes (reproduces Table II's
    lower CPU-per-op at the cost of extra wakeup context switches —
    the paper's two tables are mutually inconsistent about which the
    authors ran, so both are provided).
    """

    name = "dedicated"
    needs_daemon = False

    def __init__(self, driver, poll_pause_us=20, pause_mode="spin"):
        if pause_mode not in ("spin", "sleep"):
            raise SimulationError("unknown pause mode %r" % (pause_mode,))
        self.driver = driver
        self.poll_pause_ns = usec(poll_pause_us)
        self.pause_mode = pause_mode
        self.simos = None

    def register_thread(self):
        return _ThreadIoState(self.simos, self.driver.alloc_qpair())

    def start(self, simos):
        """No daemon; threads registered from now on run on ``simos``."""
        self.simos = simos

    def stop(self):
        """No daemon to stop."""

    def _blocking_io(self, tls, opcode, lba, data):
        driver = self.driver
        profile = driver.device.profile
        cpu = tls.simos.cpu
        escalations = 0
        while True:
            cpu(profile.submit_cpu_ns, CPU_NVME) or (yield)
            done = []
            driver.io_submit(
                tls.qpair, opcode, lba, data=data, callback=done.append
            )
            while not done:
                if self.pause_mode == "spin":
                    cpu(self.poll_pause_ns, CPU_OTHER) or (yield)  # busy pause
                else:
                    yield Sleep(self.poll_pause_ns)
                cpu(profile.probe_cpu_ns, CPU_NVME) or (yield)
                driver.probe(tls.qpair)
            completion = done[0]
            if completion.ok:
                return completion
            if opcode == OP_WRITE and escalations < _MAX_WRITE_ESCALATIONS:
                escalations += 1
                continue
            raise _io_error(completion)

    def read(self, tls, lba):
        completion = yield from self._blocking_io(tls, OP_READ, lba, None)
        return completion.data

    def write(self, tls, lba, data):
        yield from self._blocking_io(tls, OP_WRITE, lba, data)


class _IoRequest:
    __slots__ = ("opcode", "lba", "data", "wakeup", "completion")

    def __init__(self, opcode, lba, data):
        self.opcode = opcode
        self.lba = lba
        self.data = data
        self.wakeup = Semaphore(0, name="io-req")
        self.completion = None


class SharedIoService:
    """Global request queue drained by a dedicated I/O daemon thread."""

    name = "shared"
    needs_daemon = True

    def __init__(self, driver):
        self.driver = driver
        self.qpair = driver.alloc_qpair()
        # the daemon's CPU burst per empty poll of queue and ring
        self.daemon_spin_ns = usec(1.0)
        self._mutex = Mutex("shared-io-queue")
        self._requests = deque()
        self._stop = False
        self._daemon = None
        self.simos = None

    def register_thread(self):
        return _ThreadIoState(self.simos)

    def start(self, simos):
        if self._daemon is not None:
            raise SimulationError("shared I/O daemon already running")
        self._stop = False
        self.simos = simos
        self._daemon = simos.spawn(
            self._daemon_body(simos), name="io-daemon", group="io-daemon"
        )

    def stop(self):
        self._stop = True
        self._daemon = None

    def _daemon_body(self, simos):
        driver = self.driver
        submit_cpu_ns = driver.device.profile.submit_cpu_ns
        probe_cpu_ns = driver.device.profile.probe_cpu_ns
        cpu, sem_wait, sem_post = simos.cpu, simos.sem_wait, simos.sem_post
        outstanding = 0
        while True:
            sem_wait(self._mutex) or (yield)
            batch = list(self._requests)
            self._requests.clear()
            sem_post(self._mutex) or (yield)

            for request in batch:
                cpu(submit_cpu_ns, CPU_NVME) or (yield)
                driver.io_submit(
                    self.qpair,
                    request.opcode,
                    request.lba,
                    data=request.data,
                    context=request,
                )
                outstanding += 1

            cpu(probe_cpu_ns, CPU_NVME) or (yield)
            completed = driver.probe(self.qpair)
            for completion in completed:
                outstanding -= 1
                request = completion.context
                request.completion = completion
                sem_post(request.wakeup) or (yield)

            if not batch and not completed:
                if self._stop and outstanding == 0:
                    return
                cpu(self.daemon_spin_ns, CPU_NVME) or (yield)

    def _blocking_io(self, tls, opcode, lba, data):
        simos = tls.simos
        escalations = 0
        while True:
            request = _IoRequest(opcode, lba, data)
            simos.sem_wait(self._mutex) or (yield)
            self._requests.append(request)
            simos.sem_post(self._mutex) or (yield)
            simos.sem_wait(request.wakeup) or (yield)
            completion = request.completion
            if completion.ok:
                return completion
            if opcode == OP_WRITE and escalations < _MAX_WRITE_ESCALATIONS:
                escalations += 1
                continue
            raise _io_error(completion)

    def read(self, tls, lba):
        completion = yield from self._blocking_io(tls, OP_READ, lba, None)
        return completion.data

    def write(self, tls, lba, data):
        yield from self._blocking_io(tls, OP_WRITE, lba, data)
