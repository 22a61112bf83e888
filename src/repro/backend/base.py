"""The I/O backend contract.

Every layer above the device boundary — the PA-Tree engine, the PA-LSM
worker, the sharded router, the session facades, the bench harness —
talks to storage through one object: an :class:`IoBackend`.  The
contract is the union of the two roles the simulated NVMe stack used
to play:

* the **driver plane** (what :class:`~repro.nvme.driver.NvmeDriver`
  exposes): ``alloc_qpair`` / ``io_submit`` / ``io_submit_many`` /
  ``read`` / ``write`` / ``write_many`` / ``probe`` returning
  :class:`~repro.nvme.command.Completion` records, the per-call CPU
  cost constants, and the bounded retry policy;
* the **media plane** (what :class:`~repro.nvme.device.NvmeDevice`
  exposes): ``raw_read`` / ``raw_write`` zero-time backdoors for bulk
  loading and validation, the :class:`~repro.nvme.device.DeviceProfile`
  calibration constants, completion counters and ``fault_injector``.

A backend is a composition of the device core and a driver bound to it;
the base class implements the whole contract by delegation, so the
three concrete backends only supply the substrate under the device:

* :class:`SimNvmeBackend` — the modelled SSD (the device's default
  substrate), bit-identical to wiring the device and driver by hand;
* :class:`~repro.backend.file.FileBackend` — real ``os.pread`` /
  ``os.pwrite`` against a scratch file, wall-clock timed;
* :class:`~repro.backend.replay.TraceReplayBackend` — per-command
  service times replayed from a recorded JSONL trace.

Construct backends through :func:`repro.backend.make_backend`;
importing ``repro.nvme.device`` / ``repro.nvme.driver`` outside this
package is flagged by patlint PA502.
"""

from repro.errors import BackendConfigError
from repro.nvme.device import NvmeDevice
from repro.nvme.driver import NvmeDriver


class IoBackend:
    """One pluggable I/O substrate: a device model plus its driver.

    The full driver-plane and media-plane API is implemented here by
    delegation to ``self.device`` and ``self.driver``; subclasses set
    :attr:`kind` and build the two members.  ``io_submit`` / ``read``
    / ``write`` / ``probe``, the calls on every I/O's path, are the
    driver's own bound methods, set per instance.  The facade adds zero
    virtual time — every delegated call is a plain Python attribute
    hop, so a backend-wired run of the simulated stack is bit-identical
    to the historical directly-wired one.
    """

    #: Stable backend family name (``"sim"`` / ``"file"`` / ``"replay"``).
    kind = "abstract"

    #: Whether per-command service times come from the wall clock.
    #: Wall-clock-variant backends are excluded from byte-identity
    #: gates (see ``repro.bench.diff``); virtual-time backends stay
    #: gated.
    wall_clock_variant = False

    def __init__(self, device, driver):
        if driver.device is not device:
            raise BackendConfigError(
                "backend driver must be bound to the backend device"
            )
        self.device = device
        self.driver = driver
        self.closed = False
        # the driver's four hot calls, handed straight through
        self.io_submit = driver.io_submit
        self.read = driver.read
        self.write = driver.write
        self.probe = driver.probe

    # -- identity ------------------------------------------------------

    @property
    def engine(self):
        return self.device.engine

    @property
    def profile(self):
        return self.device.profile

    @property
    def page_size(self):
        return self.device.profile.page_size

    @property
    def capacity_pages(self):
        return self.device.profile.capacity_pages

    def describe(self):
        """One JSON-able dict identifying this backend in artifacts."""
        return {
            "kind": self.kind,
            "profile": self.profile.name,
            "wall_clock_variant": self.wall_clock_variant,
        }

    # -- driver plane --------------------------------------------------

    def submit_many_cpu_ns(self, count):
        return self.driver.submit_many_cpu_ns(count)

    def alloc_qpair(self, sq_size=1024, cq_size=1024):
        return self.driver.alloc_qpair(sq_size, cq_size)

    def io_submit_many(self, qpair, entries, callback=None, context=None):
        return self.driver.io_submit_many(
            qpair, entries, callback=callback, context=context
        )

    def write_many(self, qpair, pages, callback=None, context=None):
        return self.driver.write_many(
            qpair, pages, callback=callback, context=context
        )

    def probe_empty_repeat(self, count, step_ns):
        """Book ``count`` empty probes, ``step_ns`` apart, the last one now."""
        self.device.probe_empty_repeat(count, step_ns)

    # -- media plane ---------------------------------------------------

    def raw_read(self, lba):
        return self.device.raw_read(lba)

    def raw_write(self, lba, data):
        self.device.raw_write(lba, data)

    # -- accounting passthroughs ---------------------------------------

    @property
    def reads_completed(self):
        return self.device.reads_completed

    @property
    def writes_completed(self):
        return self.device.writes_completed

    @property
    def errors_completed(self):
        return self.device.errors_completed

    @property
    def probe_calls(self):
        return self.device.probe_calls

    @property
    def outstanding(self):
        return self.device.outstanding

    @property
    def total_completed(self):
        return self.device.total_completed

    @property
    def retries_scheduled(self):
        return self.driver.retries_scheduled

    @property
    def failures_delivered(self):
        return self.driver.failures_delivered

    def mean_read_latency_ns(self):
        return self.device.mean_read_latency_ns()

    def mean_write_latency_ns(self):
        return self.device.mean_write_latency_ns()

    @property
    def fault_injector(self):
        return self.device.fault_injector

    # -- observability -------------------------------------------------

    def register_metrics(self, registry, labels=None):
        """Register the driver + device metric family (callback-backed)."""
        self.driver.register_metrics(registry, labels=labels)
        return registry

    # -- lifecycle -----------------------------------------------------

    def close(self):
        """Release host-side resources (idempotent; sim holds none)."""
        self.closed = True


class SimNvmeBackend(IoBackend):
    """The simulated NVMe device/driver stack behind the contract.

    Wiring is exactly what :class:`~repro.api.SimEnvironment` and the
    sharded router used to do by hand — same RNG stream names, same
    injector construction, same retry default — so every sim-backend
    artifact stays byte-identical to the pre-backend-boundary code.
    """

    kind = "sim"

    def __init__(self, engine, profile=None, rng_name="nvme", faults=None,
                 retry=None):
        device = NvmeDevice(engine, profile, rng_name=rng_name, faults=faults)
        super().__init__(device, NvmeDriver(device, retry=retry))

    @classmethod
    def from_parts(cls, device, driver=None):
        """Adopt an existing device (and optionally driver) pair.

        Used by :func:`as_backend` to lift historically-wired stacks —
        tests and experiments that build ``NvmeDevice`` / ``NvmeDriver``
        directly — onto the backend contract without re-allocating
        anything.
        """
        backend = cls.__new__(cls)
        IoBackend.__init__(
            backend, device, driver if driver is not None else NvmeDriver(device)
        )
        return backend


def as_backend(substrate):
    """Normalize an engine/worker I/O argument onto the contract.

    Accepts an :class:`IoBackend` (returned unchanged), a bound
    :class:`~repro.nvme.driver.NvmeDriver` or bare
    :class:`~repro.nvme.device.NvmeDevice` (wrapped in a
    :class:`SimNvmeBackend` around the existing objects).  Anything
    else raises :class:`~repro.errors.BackendConfigError`.
    """
    if isinstance(substrate, IoBackend):
        return substrate
    if isinstance(substrate, NvmeDriver):
        return SimNvmeBackend.from_parts(substrate.device, substrate)
    if isinstance(substrate, NvmeDevice):
        return SimNvmeBackend.from_parts(substrate)
    raise BackendConfigError(
        "expected an IoBackend, NvmeDriver or NvmeDevice, not %r"
        % (substrate,)
    )
