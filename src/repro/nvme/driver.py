"""SPDK-style user-space NVMe driver facade.

Thin, lock-free API mirroring the SPDK calls the paper uses:
``alloc_qpair`` / ``io_submit`` / ``probe``.  ``io_submit`` returns
immediately after appending the command to the submission queue; the
completion callback fires from ``probe`` on whichever thread probes the
completion queue — the polled-mode contract.

CPU costs: the driver exposes the per-call CPU cost constants
(``submit_cpu_ns``, ``probe_cpu_ns(...)``) and callers charge them to
their simulated thread with a ``SimOS.cpu`` burst, tagged ``CPU_NVME``
so the Fig 9 breakdown sees driver time separately from index work.

Error handling: ``probe`` returns :class:`Completion` records, not bare
commands.  A :class:`RetryPolicy` (a default bounded one unless the
caller overrides it) swallows retriable failures (transient media
errors) and transparently resubmits the command after a virtual-time
exponential backoff — callers only see the completion once it succeeds
or the retry budget is spent.
Non-retriable failures (poisoned-LBA reads) and budget-exhausted
failures are delivered with their failure status for the layers above
to turn into typed errors.
"""

from repro.errors import QueueFullError, ReproError
from repro.nvme.command import NvmeCommand, OP_READ, OP_WRITE
from repro.sim.clock import usec
from repro.sim.metrics import Counter


class RetryPolicy:
    """Bounded retry with virtual-time exponential backoff.

    A command whose completion status is retriable is resubmitted up to
    ``max_retries`` times; the n-th retry waits 20 us * 4**n (capped at
    2 ms) of virtual time before resubmission, mirroring how a real
    driver avoids hammering a briefly-unhappy device.
    """

    __slots__ = ("max_retries", "backoff_ns", "multiplier", "max_backoff_ns")

    def __init__(self, max_retries=3):
        self.max_retries = max_retries
        self.backoff_ns = usec(20)
        self.multiplier = 4.0
        self.max_backoff_ns = usec(2_000)

    def delay_ns(self, retries_spent):
        """Backoff before the retry following ``retries_spent`` retries."""
        delay = self.backoff_ns * (self.multiplier ** retries_spent)
        return int(min(delay, self.max_backoff_ns))

    def should_retry(self, completion):
        return (
            completion.status.retriable
            and completion.command.retries < self.max_retries
        )


class NvmeDriver:
    """Host-side driver bound to one :class:`NvmeDevice`."""

    def __init__(self, device, retry=None):
        self.device = device
        #: the :class:`RetryPolicy` in force, given as one or as a dict
        #: of its fields; ``None`` selects the default bounded policy (a
        #: healthy device never consults it).  Pass
        #: ``RetryPolicy(max_retries=0)`` to deliver every failure.
        if retry is None:
            retry = RetryPolicy()
        elif isinstance(retry, dict):
            retry = RetryPolicy(**retry)
        elif not isinstance(retry, RetryPolicy):
            raise ReproError(
                "retry must be a RetryPolicy, dict or None, not %r" % (retry,)
            )
        self.retry = retry
        self.retries_scheduled = Counter()
        self.failures_delivered = Counter()
        #: observer slot (repro.sim.hooks): subscribers are called with
        #: each completion whose command is about to be retried (before
        #: the backoff sleep)
        self.on_retry = ()

    # cost constants -----------------------------------------------------

    @property
    def submit_cpu_ns(self):
        """CPU cost of one ``io_submit`` call on the calling thread."""
        return self.device.profile.submit_cpu_ns

    def submit_many_cpu_ns(self, count):
        """CPU cost of one ``io_submit_many`` call carrying ``count``.

        The first command pays the full per-submit price; each further
        command pays a quarter — queueing into the ring is shared work
        and the doorbell is rung once for the whole vector.
        """
        if count <= 0:
            return 0
        base = self.device.profile.submit_cpu_ns
        return base + (count - 1) * (base // 4)

    def probe_cpu_ns(self, completions):
        """CPU cost of one ``probe`` returning ``completions`` entries."""
        profile = self.device.profile
        return (
            profile.probe_cpu_ns
            + completions * profile.probe_cpu_per_completion_ns
        )

    @property
    def page_size(self):
        return self.device.profile.page_size

    # observability -------------------------------------------------------

    def register_metrics(self, registry, labels=None):
        """Expose retry/backoff counters and delegate to the device."""
        registry.counter(
            "driver_retries_total", labels,
            fn=lambda: self.retries_scheduled.value,
            help="commands resubmitted after a retriable failure",
        )
        registry.counter(
            "driver_failures_delivered_total", labels,
            fn=lambda: self.failures_delivered.value,
            help="failures surfaced to the caller (budget spent or "
                 "non-retriable)",
        )
        retry = self.retry
        if retry is not None:
            registry.gauge(
                "driver_retry_budget_count", labels,
                fn=lambda: retry.max_retries,
                help="configured per-command retry budget",
            )
            registry.gauge(
                "driver_retry_backoff_ns", labels,
                fn=lambda: retry.backoff_ns,
                help="configured base retry backoff",
            )
        self.device.register_metrics(registry, labels=labels)
        return registry

    # API ----------------------------------------------------------------

    def alloc_qpair(self, sq_size=1024, cq_size=1024):
        return self.device.alloc_qpair(sq_size, cq_size)

    def io_submit(self, qpair, opcode, lba, data=None, callback=None, context=None):
        """Append a command to ``qpair``'s submission queue.

        Non-blocking: returns the command object immediately.  Raises
        :class:`repro.errors.QueueFullError` when the ring is full.
        """
        command = NvmeCommand(opcode, lba, data=data, callback=callback, context=context)
        self.device.submit(qpair, command)
        return command

    def io_submit_many(self, qpair, entries, callback=None, context=None):
        """Append a command vector with one doorbell ring.

        ``entries`` is a sequence of ``(opcode, lba, data)`` triples.
        All-or-nothing: :class:`repro.errors.QueueFullError` is raised
        before anything is enqueued when the ring lacks the room.
        Returns the list of command objects in entry order.
        """
        commands = [
            NvmeCommand(opcode, lba, data=data, callback=callback, context=context)
            for opcode, lba, data in entries
        ]
        self.device.submit_many(qpair, commands)
        return commands

    def read(self, qpair, lba, callback=None, context=None):
        command = NvmeCommand(OP_READ, lba, callback=callback, context=context)
        self.device.submit(qpair, command)
        return command

    def write(self, qpair, lba, data, callback=None, context=None):
        command = NvmeCommand(
            OP_WRITE, lba, data=data, callback=callback, context=context
        )
        self.device.submit(qpair, command)
        return command

    def write_many(self, qpair, pages, callback=None, context=None):
        """Vectored page writes: ``pages`` is (lba, data) pairs."""
        return self.io_submit_many(
            qpair,
            [(OP_WRITE, lba, data) for lba, data in pages],
            callback=callback,
            context=context,
        )

    def probe(self, qpair, max_completions=0):
        """Drain visible completions and fire their callbacks.

        Returns the list of delivered :class:`Completion` records.
        Callbacks run synchronously (zero virtual time); any modelled
        cost of the post-completion work is the callback owner's to
        charge.  Retriable failures within the retry budget are *not*
        delivered: the command is resubmitted after backoff and its
        completion surfaces from a later probe.
        """
        completed = self.device.probe(qpair, max_completions)
        if not completed:
            return completed
        delivered = []
        for completion in completed:
            if not completion.ok:
                if self.retry is not None and self.retry.should_retry(completion):
                    self._schedule_retry(qpair, completion)
                    continue
                self.failures_delivered.add()
            delivered.append(completion)
            callback = completion.command.callback
            if callback is not None:
                callback(completion)
        return delivered

    # retry path ---------------------------------------------------------

    def _schedule_retry(self, qpair, completion):
        command = completion.command
        delay = self.retry.delay_ns(command.retries)
        command.retries += 1
        self.retries_scheduled.add()
        if self.on_retry:
            for observer in self.on_retry:
                observer(completion)
        engine = self.device.engine
        engine.schedule_at(engine.now + delay, self._resubmit, qpair, command)

    def _resubmit(self, qpair, command):
        try:
            self.device.submit(qpair, command)
        except QueueFullError:
            # the ring is momentarily full; wait one base backoff and
            # try again — the slot drought clears as probes drain it
            engine = self.device.engine
            engine.schedule_at(
                engine.now + self.retry.backoff_ns,
                self._resubmit, qpair, command,
            )
