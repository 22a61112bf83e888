"""The NVMe device model.

Three mechanisms reproduce the NVMe behaviours the paper builds on
(its Figure 3):

* **Internal parallelism** — the device has ``channels`` independent
  service units.  IOPS grows roughly linearly with queue depth until
  the channels saturate, giving the ">10x from queue depth" effect.
* **Asymmetric, load-dependent service** — writes occupy a channel for
  longer than reads, so latency depends on the instantaneous queue
  depth and write rate.
* **Interface contention** — command fetches, completion posts and
  ``probe()`` calls all pass through a single serial *interface*
  resource.  Over-frequent probing steals interface time from command
  fetches, which is the paper's explanation for why the shared and
  dedicated baselines achieve far less IOPS than their outstanding
  I/O count should deliver (Table I) and for the probe-cycle
  sensitivity (Fig 3c).

The modelled SSD keeps its pages in memory: a write command's payload
becomes durable at completion time, and read commands return the bytes
currently on media.  This makes persistence semantics (strong vs weak
buffering, WAL group commit) testable, not just timed.

:class:`NvmeDevice` is the one queue / channel / completion pipeline
under every I/O backend.  Where service times come from and where the
media bytes live is the *substrate*'s business (see
:mod:`repro.nvme.substrate`): the modelled SSD above is the default
one, and ``repro.backend`` supplies a real scratch file and a recorded
trace.
"""

from repro.errors import DeviceError, PageBoundsError, QueueFullError
from repro.faults import make_injector
from repro.nvme.command import Completion, IoStatus
from repro.nvme.qpair import QueuePair
from repro.nvme.substrate import SimSubstrate
from repro.sim.clock import usec
from repro.sim.metrics import Counter, TimeWeightedGauge


class DeviceProfile:
    """Calibration constants for one modelled SSD.

    The default profile (see :func:`i3_nvme_profile`) is calibrated so
    that QD1 read latency is ~81 us (=> ~12 K IOPS) and saturated read
    IOPS is ~400 K, matching the scale of the paper's EC2 i3 device.
    """

    __slots__ = (
        "name",
        "channels",
        "read_service_ns",
        "write_service_ns",
        "service_sigma",
        "fetch_ns",
        "post_ns",
        "probe_iface_ns",
        "iface_backlog_cap_ns",
        "submit_cpu_ns",
        "probe_cpu_ns",
        "probe_cpu_per_completion_ns",
        "page_size",
        "capacity_pages",
    )

    def __init__(
        self,
        name="i3_nvme",
        channels=32,
        read_service_ns=usec(80),
        write_service_ns=usec(240),
        service_sigma=0.25,
        fetch_ns=usec(0.6),
        post_ns=usec(0.4),
        probe_iface_ns=usec(2.0),
        iface_backlog_cap_ns=usec(24.0),
        submit_cpu_ns=usec(0.4),
        probe_cpu_ns=usec(0.5),
        probe_cpu_per_completion_ns=usec(0.12),
        page_size=512,
        capacity_pages=16_000_000,
    ):
        self.name = name
        self.channels = channels
        self.read_service_ns = read_service_ns
        self.write_service_ns = write_service_ns
        self.service_sigma = service_sigma
        self.fetch_ns = fetch_ns
        self.post_ns = post_ns
        self.probe_iface_ns = probe_iface_ns
        self.iface_backlog_cap_ns = iface_backlog_cap_ns
        self.submit_cpu_ns = submit_cpu_ns
        self.probe_cpu_ns = probe_cpu_ns
        self.probe_cpu_per_completion_ns = probe_cpu_per_completion_ns
        self.page_size = page_size
        self.capacity_pages = capacity_pages

    def mean_service_ns(self, is_write):
        return self.write_service_ns if is_write else self.read_service_ns


def i3_nvme_profile(**overrides):
    """The paper-testbed-scale device profile (EC2 i3.2xlarge NVMe)."""
    return DeviceProfile(**overrides)


def optane_profile(**overrides):
    """An Optane-class (3D XPoint) profile: ~10x lower media latency,
    nearly symmetric reads/writes, tighter variance.  Used by the
    media-speed ablation: with faster media the device stops being the
    bottleneck sooner and the paradigm's win shifts from 'more
    outstanding I/Os' to 'less CPU per operation'."""
    defaults = dict(
        name="optane",
        channels=16,
        read_service_ns=usec(9),
        write_service_ns=usec(11),
        service_sigma=0.10,
    )
    defaults.update(overrides)
    return DeviceProfile(**defaults)


def fast_test_profile(**overrides):
    """A small, fast, deterministic profile for unit tests."""
    defaults = dict(
        name="fast_test",
        channels=4,
        read_service_ns=usec(10),
        write_service_ns=usec(30),
        service_sigma=0.0,
        capacity_pages=100_000,
    )
    defaults.update(overrides)
    return DeviceProfile(**defaults)


class NvmeDevice:
    """Event-driven NVMe device bound to a simulation engine.

    ``substrate`` defaults to the modelled SSD
    (:class:`~repro.nvme.substrate.SimSubstrate`).
    """

    def __init__(self, engine, profile=None, rng_name="nvme", faults=None,
                 substrate=None):
        self.engine = engine
        self.profile = profile or DeviceProfile()
        if substrate is None:
            substrate = SimSubstrate(self.profile, engine.rng.stream(rng_name))
        self.substrate = substrate
        # the injector draws from its own stream so enabling faults
        # never perturbs service-time draws (A/B runs stay paired)
        self.fault_injector = make_injector(
            faults, engine.rng.stream("faults:" + rng_name)
        )
        self._qpairs = []
        self._rr_index = 0
        self._free_channels = self.profile.channels
        self._iface_free_ns = 0
        # statistics
        self.reads_completed = Counter()
        self.writes_completed = Counter()
        self.errors_completed = Counter()
        self.read_latency_sum_ns = 0
        self.write_latency_sum_ns = 0
        self.outstanding = TimeWeightedGauge(engine.clock)
        self.probe_calls = Counter()
        # observer slots (repro.sim.hooks): subscribers are called with
        # each command at submission / each completion as it becomes
        # visible; must not mutate device or queue state
        self.on_submit = ()
        self.on_complete = ()
        # Schedule-exploration hook (repro.fuzz): called with
        # (command, service_ns) after fault scaling and returns the
        # service time to use, jittering per-command latency so
        # completion order is explored.  Must stay None outside fuzz
        # runs so ordinary runs are bit-identical.
        self.perturb_service = None

    # ------------------------------------------------------------------
    # host-facing operations (called via the driver)
    # ------------------------------------------------------------------

    def alloc_qpair(self, sq_size=1024, cq_size=1024):
        qpair = QueuePair(len(self._qpairs), sq_size, cq_size)
        self._qpairs.append(qpair)
        return qpair

    def _enqueue(self, qpair, command):
        """Validate and ring-push one command without kicking service."""
        self.engine.settle()
        if command.lba >= self.profile.capacity_pages:
            raise PageBoundsError("lba %d beyond device capacity" % command.lba)
        if command.is_write:
            data = command.data
            if data is None:
                raise DeviceError("write command without data")
            if len(data) != self.profile.page_size:
                raise DeviceError(
                    "write payload %d bytes != page size %d"
                    % (len(data), self.profile.page_size)
                )
        command.qpair = qpair
        command.submit_ns = self.engine.clock.now
        command.status = IoStatus.SUBMITTED
        qpair.sq.push(command)
        qpair.outstanding += 1
        qpair.submitted += 1
        self.outstanding.add(1)
        if self.on_submit:
            for observer in self.on_submit:
                observer(command)

    def submit(self, qpair, command):
        """Host pushed a command onto a submission queue."""
        self._enqueue(qpair, command)
        self._try_start()

    def submit_many(self, qpair, commands):
        """Host pushed a command vector with a single doorbell ring.

        All-or-nothing: raises :class:`~repro.errors.QueueFullError`
        before enqueueing anything when the submission ring cannot take
        the whole vector, so a failed vectored submit never leaves a
        partial prefix behind.
        """
        if qpair.sq.free_slots < len(commands):
            raise QueueFullError(
                "submission ring %s cannot take %d commands (%d free)"
                % (qpair.sq.name, len(commands), qpair.sq.free_slots)
            )
        for command in commands:
            self._enqueue(qpair, command)
        if commands:
            qpair.vector_submissions += 1
            qpair.vector_commands += len(commands)
        self._try_start()

    def probe(self, qpair, max_completions=0):
        """Pop visible completions from a completion queue.

        Models the device-side cost of a probe: the call occupies the
        interface, delaying pending command fetches (the Fig 3c
        mechanism).  Returns the list of completed commands, all of
        them unless ``max_completions`` is positive; the CPU cost on the
        calling thread is the caller's to charge.

        Command fetches and completion posts are real work and always
        queue on the interface.  Probe overhead is droppable: once the
        backlog reaches ``iface_backlog_cap_ns`` further probe pressure
        is coalesced (as MMIO/doorbell traffic is in hardware) instead
        of growing the backlog without bound -- probing still steals up
        to the cap's worth of interface time from command fetches,
        which is the Fig 3c throughput penalty.
        """
        engine = self.engine
        engine.settle()
        self.probe_calls.value += 1
        now = engine.clock.now
        start = self._iface_free_ns
        if start < now:
            start = now
        if start - now < self.profile.iface_backlog_cap_ns:
            self._iface_free_ns = start + self.substrate.probe_iface_ns
        cq = qpair.cq
        if max_completions <= 0:
            return cq.drain()
        completed = []
        while len(completed) < max_completions:
            command = cq.pop()
            if command is None:
                break
            completed.append(command)
        return completed

    def probe_empty_repeat(self, count, step_ns):
        """``count`` probes that each found every completion queue empty.

        The probes are ``step_ns`` apart and the last one is now; no
        command was fetched and no post is ordered between the first
        and the last.
        Leaves the device where that many :meth:`probe` calls at those
        instants do: each occupies the interface from its own instant,
        or is coalesced once the backlog it finds has reached the cap
        (the droppable booking of :meth:`probe`).

        The backlog ``b`` a probe finds (interface time booked past its
        instant; negative while idle) fixes the next probe's:
        ``max(b, 0) + probe_iface_ns - step_ns`` under the cap,
        ``b - step_ns`` at or over it.  That is a function of ``b``
        alone, so once a value comes back the rest is whole periods:
        walk to the first repeat, skip the periods, walk the remainder.
        """
        self.probe_calls.add(count)
        duration_ns = self.substrate.probe_iface_ns
        cap_ns = self.profile.iface_backlog_cap_ns
        now = self.engine.clock.now
        # what the first probe, at now - (count - 1) * step_ns, finds
        backlog = self._iface_free_ns - now + (count - 1) * step_ns
        seen = {}  # backlog -> probes left when it was found
        left = count
        while left:
            if seen is not None:
                if backlog in seen:
                    # the probes since it was found are one period
                    left %= seen[backlog] - left
                    seen = None
                    continue
                seen[backlog] = left
            busy = backlog if backlog > 0 else 0
            if busy < cap_ns:
                backlog = busy + duration_ns - step_ns
            else:
                backlog -= step_ns
            left -= 1
        # the backlog past the instant after the last probe
        self._iface_free_ns = now + step_ns + backlog

    # ------------------------------------------------------------------
    # direct media access (bulk loading / recovery inspection only)
    # ------------------------------------------------------------------

    def raw_write(self, lba, data):
        """Zero-time backdoor write used by bulk loaders and tests."""
        if len(data) != self.profile.page_size:
            raise DeviceError("raw write payload size mismatch")
        if lba >= self.profile.capacity_pages:
            raise PageBoundsError("lba %d beyond device capacity" % lba)
        self.substrate.write(lba, bytes(data))

    def raw_read(self, lba):
        """Zero-time backdoor read; returns zeroes for untouched pages."""
        if lba >= self.profile.capacity_pages:
            raise PageBoundsError("lba %d beyond device capacity" % lba)
        return self.substrate.read(lba)

    # ------------------------------------------------------------------
    # statistics helpers
    # ------------------------------------------------------------------

    def register_metrics(self, registry, labels=None):
        """Expose device counters/gauges through a metric registry.

        All registrations are callback-backed reads of the counters the
        device already keeps, so instrumenting a run adds no work to
        the completion path.  Fault-injection counters register only
        when an injector is armed, keeping healthy-run exports free of
        fault-path noise.
        """
        registry.counter(
            "device_reads_total", labels,
            fn=lambda: self.reads_completed.value,
            help="read commands completed successfully",
        )
        registry.counter(
            "device_writes_total", labels,
            fn=lambda: self.writes_completed.value,
            help="write commands completed successfully",
        )
        registry.counter(
            "device_errors_total", labels,
            fn=lambda: self.errors_completed.value,
            help="commands completed with a failure status",
        )
        registry.counter(
            "device_probe_calls_total", labels,
            fn=lambda: self.probe_calls.value,
            help="completion-queue probe calls",
        )
        registry.gauge(
            "device_outstanding_ops", labels,
            fn=lambda: self.outstanding.value,
            help="commands submitted but not yet visible-complete",
        )
        registry.gauge(
            "device_channel_busy_ratio", labels,
            fn=self.channel_busy_ratio,
            help="fraction of device channels in service",
        )
        injector = self.fault_injector
        if injector is not None:
            registry.counter(
                "fault_media_errors_total", labels,
                fn=lambda: injector.media_errors_injected,
                help="injected transient media errors",
            )
            registry.counter(
                "fault_spikes_total", labels,
                fn=lambda: injector.spikes_injected,
                help="injected latency spikes",
            )
            registry.counter(
                "fault_poison_read_failures_total", labels,
                fn=lambda: injector.poison_read_failures,
                help="reads failed against poisoned LBAs",
            )
            registry.counter(
                "fault_poison_cured_total", labels,
                fn=lambda: injector.poison_cured,
                help="poisoned LBAs cured by successful writes",
            )
        return registry

    @property
    def total_completed(self):
        return self.reads_completed.value + self.writes_completed.value

    def channel_busy_ratio(self):
        """Fraction of the device's channels currently in service."""
        channels = self.profile.channels
        return (channels - self._free_channels) / channels

    def mean_read_latency_ns(self):
        n = self.reads_completed.value
        return self.read_latency_sum_ns / n if n else 0.0

    def mean_write_latency_ns(self):
        n = self.writes_completed.value
        return self.write_latency_sum_ns / n if n else 0.0

    def complete_status(self, command):
        """For the substrate: the status ``command`` completes with.

        One injector draw per service attempt; substrates call it at
        whichever of ``start`` / ``finish`` they decide the outcome.
        """
        if self.fault_injector is None:
            return IoStatus.SUCCESS
        return self.fault_injector.complete_status(command)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _try_start(self):
        """Fetch commands into free channels, round-robin across queues.

        Each fetch is booked on the serial interface behind whatever
        occupies it; the next scan starts after the queue served last.
        """
        qpairs = self._qpairs
        count = len(qpairs)
        index = self._rr_index
        now = self.engine.clock.now
        fetch_ns = self.substrate.fetch_ns
        empty = 0  # queues found empty in a row
        while self._free_channels > 0 and empty < count:
            sq = qpairs[index].sq
            index = (index + 1) % count
            if not sq.count:
                empty += 1
                continue
            empty = 0
            self._rr_index = index
            command = sq.pop()
            self._free_channels -= 1
            fetch_end = self._iface_free_ns
            if fetch_end < now:
                fetch_end = now
            fetch_end += fetch_ns
            self._iface_free_ns = command.fetch_ns = fetch_end
            service = self.substrate.start(self, command)
            if self.fault_injector is not None:
                service = int(
                    service * self.fault_injector.service_factor(command.is_write)
                )
            if self.perturb_service is not None:
                service = int(self.perturb_service(command, service))
            self.engine.schedule_at(
                fetch_end + service, self._service_done, command
            )

    def _service_done(self, command):
        """Media finished; mint the status, apply data, post completion.

        The substrate decides the completion status (consulting the
        fault injector when one is configured): a failed write leaves
        the media untouched and a failed read carries no data — exactly
        the contract a real error status implies.

        Only a probe reads a post, so with no completion or dispatch
        observer bound the post is a passive kernel entry, applied by
        ``Engine.settle``; this stays an event because the service it
        starts next takes its seq here.
        """
        engine = self.engine
        engine.settle()
        now = engine.clock.now
        command.complete_ns = now
        status = self.substrate.finish(self, command)
        self._free_channels += 1
        post_end = self._iface_free_ns
        if post_end < now:
            post_end = now
        post_end += self.substrate.post_ns
        self._iface_free_ns = post_end
        if post_end <= now:
            self._post_completion(command, status)
        elif self.on_complete or engine.on_dispatch:
            engine.schedule_at(
                post_end, self._post_completion, command, status
            )
        else:
            engine.schedule_passive_at(
                post_end, self._post_completion, command, status
            )
        self._try_start()

    def _post_completion(self, command, status):
        command.status = status
        command.visible_ns = self.engine.clock.now
        qpair = command.qpair
        qpair.outstanding -= 1
        qpair.completed += 1
        self.outstanding.add(-1)
        latency = command.visible_ns - command.submit_ns
        if not status.ok:
            self.errors_completed.add()
        elif command.is_write:
            self.writes_completed.add()
            self.write_latency_sum_ns += latency
        else:
            self.reads_completed.add()
            self.read_latency_sum_ns += latency
        completion = Completion(
            command, status, command.visible_ns, attempt=command.retries
        )
        qpair.cq.push(completion)
        if self.on_complete:
            for observer in self.on_complete:
                observer(completion)
