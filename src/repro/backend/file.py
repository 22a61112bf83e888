"""Real-file I/O backend: ``os.pread`` / ``os.pwrite`` on a scratch file.

The bridge from the simulated device to real hardware.  Pages live at
``lba * page_size`` offsets in a (sparse) scratch file; every read and
write command performs the real syscall and the **measured wall-clock
duration of that syscall becomes the command's virtual service time**,
so the discrete-event machinery above — polled probing, closed-loop
windows, latency accounting — runs unchanged while the timings are the
host storage stack's own.

Determinism seams (this backend is deliberately the one wall-clock
leak in the tree, and the seams are fenced):

* measured service times are **quantized** to ``quantum_ns`` buckets
  so one run's artifacts are stable against scheduler micro-jitter
  (they are still machine-dependent — ``wall_clock_variant`` marks
  every derived artifact row, and ``repro.bench diff`` refuses to
  byte-gate such rows);
* the real syscall happens at service *start*; durability therefore
  coincides with the start of the measured service window, not its
  end.  An injected write failure skips the syscall entirely, so the
  failed-write-leaves-media-untouched contract still holds.

A :class:`FileBackend` can record every serviced command into a JSONL
trace (:meth:`record_to`) for the calibration harness and the
trace-replay backend.
"""

import os
import tempfile
import time

from repro.backend.base import IoBackend
from repro.backend.trace_io import TraceWriter
from repro.nvme.device import DeviceProfile, NvmeDevice
from repro.nvme.driver import NvmeDriver
from repro.sim.clock import usec


def file_backend_profile(**overrides):
    """Default calibration constants for the file backend.

    Host-page-cache-backed files serve in single-digit microseconds,
    so the channel count is modest and the CPU cost constants keep the
    simulated-thread accounting meaningful.  ``read_service_ns`` /
    ``write_service_ns`` are *fallbacks* (used when a syscall is
    skipped, e.g. an injected write failure); live commands are timed,
    not modelled.
    """
    defaults = dict(
        name="file_backend",
        channels=8,
        read_service_ns=usec(6),
        write_service_ns=usec(10),
        service_sigma=0.0,
        capacity_pages=4_000_000,
    )
    defaults.update(overrides)
    return DeviceProfile(**defaults)


class FileSubstrate:
    """Substrate whose media is a real scratch file.

    ``path=None`` creates (and owns) a temporary scratch file that is
    unlinked on :meth:`close`; an explicit path is opened/created and
    left in place.  Interface occupation terms are zero whatever the
    profile says: there is no modelled host interface in front of a
    file, and calibration residuals stay honest that way.
    """

    fetch_ns = 0
    post_ns = 0
    probe_iface_ns = 0

    def __init__(self, profile, path=None, quantum_ns=256):
        self.page_size = profile.page_size
        self.quantum_ns = max(quantum_ns, 1)
        self._owns_file = path is None
        if path is None:
            fd, path = tempfile.mkstemp(prefix="patree-file-backend-",
                                        suffix=".dat")
            self._fd = fd
        else:
            self._fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o600)
        self.path = path
        self._written = set()
        # (status, read data) of commands in service, decided at start
        self._in_service = {}
        self.recorder = None
        self.syscalls = 0

    # -- media plane (real syscalls) -----------------------------------

    def write(self, lba, data):
        os.pwrite(self._fd, data, lba * self.page_size)
        self._written.add(lba)

    def read(self, lba):
        page_size = self.page_size
        if lba not in self._written:
            # untouched pages read as zeroes, as the sim device does —
            # without relying on filesystem sparse-read semantics
            return bytes(page_size)
        data = os.pread(self._fd, page_size, lba * page_size)
        if len(data) < page_size:
            data = data + bytes(page_size - len(data))
        return data

    # -- service (the wall-clock seam) ---------------------------------

    def _quantize(self, measured_ns):
        quantum = self.quantum_ns
        buckets = (measured_ns + quantum - 1) // quantum
        return max(buckets, 1) * quantum

    def start(self, device, command):
        """Perform the syscall now; its measured time is the service.

        The status is decided here, not at completion, because an
        injected write failure has to skip the ``pwrite``.
        """
        status = device.complete_status(command)
        read_data = None
        if not status.ok:
            # the syscall is skipped: charge the modelled fallback time
            service = device.profile.mean_service_ns(command.is_write)
        else:
            # the one sanctioned wall-clock read in the tree: the file
            # backend's service times ARE the host's storage timings
            start = time.perf_counter_ns()
            if command.is_write:
                self.write(command.lba, bytes(command.data))
            else:
                read_data = self.read(command.lba)
            measured = time.perf_counter_ns() - start
            self.syscalls += 1
            service = self._quantize(measured)
        self._in_service[command] = (status, read_data)
        if self.recorder is not None:
            self.recorder.record(
                command.opcode,
                command.lba,
                service,
                qd=int(device.outstanding.value),
            )
        return service

    def finish(self, device, command):
        status, read_data = self._in_service.pop(command)
        if read_data is not None:
            command.data = read_data
        return status

    # -- lifecycle -----------------------------------------------------

    def close(self):
        if self.recorder is not None:
            self.recorder.close()
            self.recorder = None
        os.close(self._fd)
        if self._owns_file:
            try:
                os.unlink(self.path)
            except OSError:
                pass


class FileBackend(IoBackend):
    """Backend contract over the device core on a :class:`FileSubstrate`."""

    kind = "file"
    wall_clock_variant = True

    def __init__(self, engine, profile=None, path=None, rng_name="file",
                 faults=None, retry=None, quantum_ns=256):
        profile = profile or file_backend_profile()
        device = NvmeDevice(
            engine, profile, rng_name=rng_name, faults=faults,
            substrate=FileSubstrate(profile, path, quantum_ns),
        )
        super().__init__(device, NvmeDriver(device, retry=retry))

    @property
    def path(self):
        return self.device.substrate.path

    def describe(self):
        info = super().describe()
        info["quantum_ns"] = self.device.substrate.quantum_ns
        return info

    def record_to(self, trace_path):
        """Start recording every serviced command into a JSONL trace."""
        self.device.substrate.recorder = TraceWriter(
            trace_path,
            backend=self.kind,
            page_size=self.page_size,
            channels=self.profile.channels,
            quantum_ns=self.device.substrate.quantum_ns,
        )
        return self.device.substrate.recorder

    def close(self):
        if not self.closed:
            self.device.substrate.close()
        super().close()
