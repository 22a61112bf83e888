"""Trace-replay backend: recorded service times, virtual everything else.

Replays the per-command service durations of a recorded trace (see
``repro.backend.trace_io``) through the device core.  Media is the
simulated device's in-memory page store (status and data decided at
completion time), timing is table lookup — so replay runs are **fully
deterministic**: the same trace and workload produce byte-identical
artifacts on any machine, which is what lets the calibration harness
compare a wall-clock FileBackend run against a reproducible stand-in.

Service times are consumed per opcode in recorded order; when a
replayed workload issues more commands of an opcode than the trace
holds, the sequence wraps around (deterministically).  An empty
opcode sequence falls back to the profile's modelled mean, so a
read-only trace can still replay a mixed workload.
"""

from repro.backend.base import IoBackend
from repro.backend.trace_io import read_trace
from repro.errors import BackendConfigError
from repro.nvme.command import OP_READ, OP_WRITE
from repro.nvme.device import DeviceProfile, NvmeDevice
from repro.nvme.driver import NvmeDriver
from repro.nvme.substrate import MemorySubstrate


class ReplaySubstrate(MemorySubstrate):
    """In-memory media whose service times come from a recorded trace.

    Interface occupation terms stay zero whatever the profile says:
    the recorded durations already are the whole service.
    """

    def __init__(self, profile, trace):
        super().__init__(profile)
        self._times = {
            OP_READ: trace.service_times(OP_READ),
            OP_WRITE: trace.service_times(OP_WRITE),
        }
        self._cursors = {OP_READ: 0, OP_WRITE: 0}
        self.wraps = 0

    def start(self, device, command):
        times = self._times[command.opcode]
        if not times:
            return device.profile.mean_service_ns(command.is_write)
        cursor = self._cursors[command.opcode]
        if cursor >= len(times):
            cursor = 0
            self.wraps += 1
        self._cursors[command.opcode] = cursor + 1
        return times[cursor]


class TraceReplayBackend(IoBackend):
    """Backend contract over the device core on a :class:`ReplaySubstrate`.

    ``trace`` may be a path to a JSONL trace file or an already-parsed
    :class:`~repro.backend.trace_io.IoTrace`.  The profile defaults to
    one derived from the trace header (page size, channel count) with
    per-opcode fallback means taken from the recorded samples.
    """

    kind = "replay"

    def __init__(self, engine, trace, profile=None, rng_name="replay",
                 faults=None, retry=None):
        if isinstance(trace, str):
            trace = read_trace(trace)
        if trace is None:
            raise BackendConfigError("replay backend requires a trace")
        if profile is None:
            profile = profile_from_trace(trace)
        self.trace = trace
        device = NvmeDevice(
            engine, profile, rng_name=rng_name, faults=faults,
            substrate=ReplaySubstrate(profile, trace),
        )
        super().__init__(device, NvmeDriver(device, retry=retry))

    def describe(self):
        info = super().describe()
        info["trace_records"] = len(self.trace)
        info["trace_wraps"] = self.device.substrate.wraps
        return info


def _mean(values, fallback):
    return int(sum(values) / len(values)) if values else fallback


def profile_from_trace(trace, **overrides):
    """Derive a :class:`DeviceProfile` from a trace's header + samples.

    The per-opcode service means are only *fallbacks* during replay
    (live commands take exact recorded durations); they make the
    profile a sensible stand-alone simulator calibration as well,
    which is how the calibration harness seeds its fit.
    """
    defaults = dict(
        name="replay:%s" % trace.header.get("backend", "trace"),
        channels=trace.channels,
        page_size=trace.page_size,
        read_service_ns=_mean(trace.service_times(OP_READ), 6_000),
        write_service_ns=_mean(trace.service_times(OP_WRITE), 10_000),
        service_sigma=0.0,
        capacity_pages=4_000_000,
    )
    defaults.update(overrides)
    return DeviceProfile(**defaults)
