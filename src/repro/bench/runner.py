"""Experiment harness.

Builds a fresh simulated machine per run (a
:class:`repro.api.SimEnvironment` on the process-default backend, so
``repro.bench --backend file`` retargets every exhibit built here, and
a freshly formatted tree), preloads the workload, drives it through
either the PA-Tree engine or a synchronous baseline, and reports one
flat dict of the quantities the paper's tables and figures use:
throughput, latency percentiles, achieved IOPS, time-averaged
outstanding I/Os, CPU cores consumed, CPU per operation, context
switches, and the CPU breakdown by category.

Every run is deterministic in (spec, seed); sweeps fork the seed so
arms are paired.
"""

from dataclasses import dataclass

from repro.api import SimEnvironment
from repro.baselines.io_service import DedicatedIoService, SharedIoService
from repro.baselines.latching import BlockingLatchTable
from repro.baselines.runner import BaselineRunner
from repro.baselines.sync_tree import SyncTreeAccessor
from repro.buffer import make_buffer
from repro.core.engine import PaTreeEngine
from repro.core.ops import sync_op
from repro.core.source import ClosedLoopSource, OpenLoopSource
from repro.core.tree import PaTree
from repro.errors import BenchmarkError
from repro.sched import SCHEDULERS, make_scheduler
from repro.sim.clock import NS_PER_SEC
from repro.sim.metrics import CPU_CATEGORIES
from repro.sim.rng import RngRegistry
from repro.workloads import SseWorkload, TDriveWorkload, YcsbWorkload


@dataclass
class WorkloadSpec:
    """Declarative description of one workload instance."""

    kind: str = "ycsb"
    n_keys: int = 20_000
    n_ops: int = 4_000
    mix: str = "default"
    alpha: float = 0.3
    payload_size: int = 8
    insert_ratio: float = 0.0
    sync_every: int = 0
    n_actors: int = 200

    def build(self, rng):
        if self.kind == "ycsb":
            return YcsbWorkload(
                self.n_keys,
                self.n_ops,
                mix=self.mix,
                alpha=self.alpha,
                rng=rng,
                payload_size=self.payload_size,
                insert_ratio=self.insert_ratio,
            )
        if self.kind == "tdrive":
            return TDriveWorkload(
                self.n_actors,
                self.n_keys,
                self.n_ops,
                rng,
                payload_size=self.payload_size,
            )
        if self.kind == "sse":
            return SseWorkload(
                self.n_actors,
                self.n_keys,
                self.n_ops,
                rng,
                payload_size=self.payload_size,
            )
        raise BenchmarkError("unknown workload kind %r" % (self.kind,))


def _interleave_syncs(operations, sync_every):
    """Insert a sync() after every ``sync_every`` update operations."""
    since = 0
    for op in operations:
        yield op
        if op.is_update:
            since += 1
            if since >= sync_every:
                since = 0
                yield sync_op()


def _finish_stats(result, env, completed, latencies, group, end_ns=None):
    # Throughput windows end at the last user-operation completion, so
    # a trailing group-commit flush does not distort short runs.
    elapsed_ns = end_ns if end_ns else env.engine.now
    elapsed_s = elapsed_ns / NS_PER_SEC if elapsed_ns else 1.0
    device = env.device
    account = env.os.cpu_account(group)
    result.update(
        {
            "elapsed_s": elapsed_s,
            "throughput_ops": completed / elapsed_s,
            "mean_latency_us": latencies.mean_usec(),
            "p50_latency_us": latencies.p50_usec(),
            "p99_latency_us": latencies.p99_usec(),
            "iops": device.total_completed / elapsed_s,
            "device_reads": device.reads_completed.value,
            "device_writes": device.writes_completed.value,
            "outstanding_avg": device.outstanding.average(),
            "cores_used": env.os.total_busy_ns() / elapsed_ns
            if elapsed_ns
            else 0.0,
            "context_switches": env.os.context_switches.value,
            "cpu_us_per_op": (account.total_ns / 1000.0 / completed)
            if completed
            else 0.0,
            "cpu_breakdown": {
                name: account.fraction(name) for name in CPU_CATEGORIES
            },
            "completed": completed,
        }
    )
    return result


def run_pa(
    spec,
    seed=1,
    scheduler="workload_aware",
    policy=None,
    persistence="strong",
    buffer_pages=0,
    window=64,
    dedicated_poller=None,
    device_profile=None,
    open_loop_rate=None,
    trace=False,
    faults=None,
    retry=None,
):
    """Run one PA-Tree experiment; returns the flat stats dict.

    With ``trace=True`` a :class:`repro.obs.TraceSession` records the
    whole run (spans, time series, histograms) and is returned under
    the ``"trace_session"`` key.  Tracing observes through observer
    slots that charge no virtual time, so every reported quantity
    matches the untraced run exactly.

    ``faults`` (a :class:`repro.faults.FaultConfig` or kwargs dict) arms
    the device's fault injector and ``retry`` overrides the driver's
    :class:`~repro.nvme.driver.RetryPolicy`; both default to off, which
    reproduces the fault-free numbers bit for bit.
    """
    env = SimEnvironment(
        seed, device_profile=device_profile, faults=faults, retry=retry
    )
    tree = PaTree.create(env.device, payload_size=spec.payload_size)
    rng = RngRegistry(seed).stream("workload")
    workload = spec.build(rng)
    tree.bulk_load(workload.preload_items())

    session = None
    if trace:
        from repro.obs import TraceSession

        session = TraceSession(env.engine)

    if policy is None:
        if scheduler not in SCHEDULERS:
            raise BenchmarkError("unknown scheduler %r" % (scheduler,))
        policy = make_scheduler(scheduler, env.device_profile)

    operations = workload.operations()
    if spec.sync_every:
        operations = _interleave_syncs(operations, spec.sync_every)

    if open_loop_rate is not None:
        arrival_rng = RngRegistry(seed).stream("arrival")
        source = OpenLoopSource(operations, open_loop_rate, arrival_rng)
    else:
        source = ClosedLoopSource(operations, window=window)

    buffer = make_buffer(persistence, buffer_pages)
    pa = PaTreeEngine(
        env.os,
        env.backend,
        tree,
        policy,
        source=source,
        buffer=buffer,
        dedicated_poller=dedicated_poller,
    )
    if session is not None:
        session.attach_device(env.device)
        session.attach_simos(env.os)
        session.attach_worker(pa)
        session.attach_buffer(buffer)
        session.start()
    pa.run_to_completion()
    if persistence == "weak":
        # Flush the dirty tail so media-level validation sees every
        # update (the measured run above is untouched).
        pa.reset_source(ClosedLoopSource([sync_op()], window=1))
        pa.run_to_completion()
    if session is not None:
        session.finish()
    tree.validate()

    result = {
        "approach": "pa-tree",
        "threads": 1,
        "scheduler": getattr(policy, "name", "custom"),
        "probes": pa.probes.value,
        "latch_waits": pa.latch_wait_events.value,
    }
    if env.device.fault_injector is not None:
        # fault-path keys appear only on armed runs so fault-free rows
        # keep their historical shape
        result["faults"] = env.device.fault_injector.stats()
        result["io_errors"] = pa.io_errors.value
        result["failed_ops"] = pa.failed_ops.value
        result["io_retries"] = env.driver.retries_scheduled.value
        result["io_escalations"] = pa.io_escalations.value
        result["lost_writes"] = pa.lost_writes.value
    if env.backend.kind != "sim":
        result["backend"] = env.backend.describe()
    if session is not None:
        result["trace_session"] = session
    stats = _finish_stats(
        result,
        env,
        pa.user_completed,
        pa.latencies,
        "pa-tree",
        end_ns=pa.last_user_done_ns,
    )
    env.close()
    return stats


def run_sync_baseline(
    spec,
    io_mode,
    n_threads,
    seed=1,
    device_profile=None,
    pause_mode="spin",
    poll_pause_us=20,
):
    """Run one shared/dedicated synchronous-paradigm experiment
    (strong persistence, no buffer)."""
    env = SimEnvironment(seed, device_profile=device_profile)
    tree = PaTree.create(env.device, payload_size=spec.payload_size)
    rng = RngRegistry(seed).stream("workload")
    workload = spec.build(rng)
    tree.bulk_load(workload.preload_items())

    if io_mode == "dedicated":
        io_service = DedicatedIoService(
            env.driver, poll_pause_us=poll_pause_us, pause_mode=pause_mode
        )
    elif io_mode == "shared":
        io_service = SharedIoService(env.driver)
    else:
        raise BenchmarkError("unknown io mode %r" % (io_mode,))

    operations = workload.operations()
    if spec.sync_every:
        operations = _interleave_syncs(operations, spec.sync_every)

    accessor = SyncTreeAccessor(tree, io_service, BlockingLatchTable())
    runner = BaselineRunner(
        env.os, accessor, operations, n_threads, name=io_mode
    )
    runner.run_to_completion()
    tree.validate()

    result = {
        "approach": io_mode,
        "threads": n_threads,
        "scheduler": "synchronous",
    }
    env.close()
    return _finish_stats(
        result,
        env,
        runner.user_completed,
        runner.latencies,
        io_mode,
        end_ns=runner.last_user_done_ns,
    )
