"""The shared contract of ``repro.core.worker.PolledWorker``.

One loop (Algorithm 1/2) drives both index structures, so what the
loop promises — lifecycle errors, scheduler-decision counters, typed
aborts, tracer spans, the common metric block — is asserted once,
parametrised over the tree engine and the LSM worker.
"""

import pytest

from repro.baselines.lsm import LeveledStore, LsmConfig
from repro.core.engine import PaTreeEngine
from repro.core.ops import search_op, update_op
from repro.core.source import ClosedLoopSource, OpenLoopSource
from repro.core.tree import PaTree
from repro.core.worker import PolledWorker
from repro.errors import (
    IoError,
    RetryExhaustedError,
    SchedulerError,
    SimulationError,
)
from repro.faults import FaultConfig
from repro.nvme.command import IoStatus
from repro.nvme.device import NvmeDevice, fast_test_profile
from repro.nvme.driver import NvmeDriver
from repro.obs.metrics import MetricRegistry
from repro.obs.tracer import EV_SLICE, Tracer
from repro.palsm import PolledLsmWorker
from repro.sched.naive import NaiveScheduling
from repro.sched.policies import FixedRateProbing
from repro.sched.probe_model import cached_probe_model
from repro.sched.workload_aware import WorkloadAwareScheduling
from repro.sim.engine import Engine
from repro.sim.hooks import subscribe
from repro.sim.rng import RngRegistry
from repro.simos.scheduler import OsProfile, SimOS

KEYS = 300

pytestmark = pytest.mark.parametrize("kind", ["tree", "lsm"])


def payload(key):
    return (key % 2**64).to_bytes(8, "little")


def build(kind, policy=None, faults=None, traced=False):
    """A preloaded worker of ``kind`` on a cold device; returns
    ``(sim engine, worker)``."""
    engine = Engine(seed=1)
    simos = SimOS(engine, OsProfile(cores=4))
    device = NvmeDevice(engine, fast_test_profile(), faults=faults)
    driver = NvmeDriver(device)
    items = [(k * 10, payload(k * 10)) for k in range(1, KEYS + 1)]
    common = dict(
        policy=policy or NaiveScheduling(),
        source=ClosedLoopSource([], window=16),
    )
    if kind == "tree":
        tree = PaTree.create(device)
        tree.bulk_load(items)
        worker = PaTreeEngine(simos, driver, tree, **common)
    else:
        store = LeveledStore(device, LsmConfig(memtable_entries=100, wal_pages=4_096))
        store.bulk_load(items)
        worker = PolledLsmWorker(simos, driver, store, **common)
    if traced:
        worker.tracer = Tracer(engine.clock)
    return engine, worker


def reads(count=120):
    return [search_op((k % KEYS + 1) * 10) for k in range(count)]


def test_both_workers_are_the_one_loop(kind):
    _engine, worker = build(kind)
    assert isinstance(worker, PolledWorker)
    assert type(worker)._worker_body is PolledWorker._worker_body
    assert type(worker).reset_source is PolledWorker.reset_source


def test_reset_source_on_a_running_worker_raises(kind):
    _engine, worker = build(kind)
    ops = reads()
    worker.reset_source(ClosedLoopSource(ops, window=16))
    worker.start()
    with pytest.raises(SchedulerError):
        worker.reset_source(ClosedLoopSource([], window=16))
    worker.simos.run_until_done([worker.worker_thread])
    assert all(op.result == payload(op.key) for op in ops)
    worker.reset_source()  # a finished worker re-arms


def test_yielding_policy_counts_yields_and_declined_probes(kind):
    _engine, worker = build(kind, policy=FixedRateProbing(omega_us=20))
    ops = worker.run_operations(reads(), window=16)
    assert all(op.result == payload(op.key) for op in ops)
    assert worker.idle_yields.value > 0
    assert worker.probe_skips.value > 0
    assert worker.idle_spins.value == 0


def test_naive_policy_spins_and_never_declines_a_probe(kind):
    engine, worker = build(kind)
    ops = reads(60)
    rng = RngRegistry(9).stream("arrivals")
    worker.reset_source(OpenLoopSource(ops, rate_per_sec=50_000, rng=rng))
    worker.run_to_completion()
    assert all(op.result == payload(op.key) for op in ops)
    # between arrivals nothing is ready and nothing outstanding
    assert worker.idle_spins.value > 0
    assert worker.idle_yields.value == 0
    assert worker.probe_skips.value == 0
    assert worker.probes.value > 0


def _gated(**knobs):
    return WorkloadAwareScheduling(
        cached_probe_model(fast_test_profile()), **knobs
    )


_POLICIES = {
    "naive": NaiveScheduling,
    "gated_yielding": _gated,
    "gated_spinning": lambda: _gated(cpu_yield=False),
}


def _idle_run(kind, policy, open_loop, slow):
    """One run with long idle stretches and everything it accounts."""
    engine, worker = build(kind, policy=_POLICIES[policy]())
    if slow:  # any on_dispatch subscriber keeps the kernel on the heap
        subscribe(engine, "on_dispatch", lambda event: None)
    taken = []  # idle turns per burst the kernel granted
    take = worker.simos.cpu_repeat
    worker.simos.cpu_repeat = (
        lambda *burst: taken.append(take(*burst)) or taken[-1]
    )
    ops = [
        update_op(op.key, payload(op.key + 1)) if index % 3 == 0 else op
        for index, op in enumerate(reads(150))
    ]
    if open_loop:
        rng = RngRegistry(9).stream("arrivals")
        source = OpenLoopSource(ops, rate_per_sec=40_000, rng=rng)
    else:
        source = ClosedLoopSource(ops, window=4)
    worker.reset_source(source)
    worker.run_to_completion()
    device = worker.backend.device
    return engine, sum(taken), {
        "now": engine.now,
        "ops": [(op.result, op.admit_ns, op.done_ns) for op in ops],
        "decisions": [
            counter.value for counter in (
                worker.probes, worker.probe_skips,
                worker.idle_spins, worker.idle_yields,
            )
        ],
        "cpu": worker.worker_thread.account.by_category,
        "busy_ns": [core.busy_ns for core in worker.simos.cores],
        "probe_calls": device.probe_calls.value,
        "iface_free_ns": device._iface_free_ns,
        "device": (
            device.reads_completed.value, device.read_latency_sum_ns,
            device.writes_completed.value, device.write_latency_sum_ns,
        ),
    }


@pytest.mark.parametrize("open_loop", [False, True], ids=["closed", "open"])
@pytest.mark.parametrize("policy", sorted(_POLICIES))
def test_idle_turns_taken_in_bursts_account_like_turns_taken_one_by_one(
    kind, policy, open_loop
):
    fast_engine, fast_taken, fast = _idle_run(kind, policy, open_loop, False)
    slow_engine, slow_taken, slow = _idle_run(kind, policy, open_loop, True)
    assert fast == slow
    assert slow_engine.inlined == 0 and slow_taken == 0
    assert (
        slow_engine.dispatched == fast_engine.dispatched + fast_engine.inlined
    )
    assert fast_taken > 0  # the plain run did book idle turns in bursts


def test_probing_for_an_io_that_never_completes_trips_the_event_budget(kind):
    engine, worker = build(kind)
    engine.max_events = 20_000
    # no channel ever frees up: the read is submitted and never served,
    # so the heap stays empty while the worker probes an empty queue
    worker.backend.device._free_channels = 0
    with pytest.raises(SimulationError, match="event budget exceeded"):
        worker.run_operations(reads(1), window=1)
    assert worker.io_history.outstanding_count == 1
    assert len(engine.events) == 0
    assert engine.dispatched + engine.inlined == 20_001


def test_poisoned_read_aborts_with_the_typed_error(kind):
    profile = fast_test_profile()
    _engine, worker = build(
        kind,
        faults=FaultConfig(poison_ranges=((0, profile.capacity_pages - 1),)),
    )
    ops = worker.run_operations(reads(8), window=4)
    for op in ops:
        assert isinstance(op.error, IoError)
        assert not isinstance(op.error, RetryExhaustedError)
        assert op.error.status is IoStatus.UNRECOVERED_READ
        assert op.result is None
    assert worker.failed_ops.value == len(ops)
    assert worker.inflight == 0
    assert worker.user_completed == 0
    assert worker.stats()["failed_ops"] == len(ops)


def test_process_and_probe_spans_on_the_worker_track(kind):
    _engine, worker = build(kind, traced=True)
    worker.run_operations(reads(20), window=4)
    track = "worker:%s" % worker.name
    names = {
        event[2]
        for event in worker.tracer.events
        if event[0] == EV_SLICE and event[1] == track
    }
    assert {"process:search", "probe"} <= names


# every name either worker registered before the loops were merged
_COMMON = (
    "completed_total", "failed_ops_total", "io_errors_total",
    "io_escalations_total", "lost_writes_total", "probes_total",
    "inflight_ops", "outstanding_io_count",
)
_DECISIONS = ("probe_skips_total", "idle_yields_total", "idle_spins_total")
_FANOUT = (
    "driver_retries_total", "driver_failures_delivered_total",
    "driver_retry_budget_count", "driver_retry_backoff_ns",
    "device_reads_total", "device_writes_total", "device_errors_total",
    "device_probe_calls_total", "device_outstanding_ops",
    "device_channel_busy_ratio", "qpair_outstanding_ops",
    "qpair_submitted_total", "qpair_completed_total",
    "qpair_vector_submissions_total", "qpair_vector_commands_total",
    "qpair_sq_occupancy_ratio", "qpair_cq_occupancy_ratio",
    "sched_ready_ops",
)
_OWN = {
    "tree": (
        "engine_latch_wait_events_total", "batch_ops_total",
        "batch_keys_total", "batch_groups_total", "batch_group_size",
        "engine_coalesced_writes_total", "latch_grants_total",
        "latch_waits_total", "latch_held_pages", "latch_pending_ops",
    ),
    "lsm": ("store_flushes_total", "store_compactions_total"),
}


def test_metric_names_are_stable_and_decisions_are_exported(kind):
    _engine, worker = build(kind, policy=FixedRateProbing(omega_us=20))
    registry = worker.register_metrics(MetricRegistry())
    prefix = {"tree": "engine_", "lsm": "worker_"}[kind]
    expected = {prefix + name for name in _COMMON + _DECISIONS}
    expected.update(_FANOUT, _OWN[kind])
    assert {metric.name for metric in registry.collect()} == expected
    worker.run_operations(reads(), window=16)
    scalars = registry.scalars()
    assert scalars[prefix + "completed_total"] == 120
    assert scalars[prefix + "idle_yields_total"] == worker.idle_yields.value > 0
    assert scalars[prefix + "probe_skips_total"] == worker.probe_skips.value > 0
