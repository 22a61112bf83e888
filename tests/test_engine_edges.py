"""Edge-case tests for the PA engine: open-loop idling, submission
backpressure, write serialization per LBA, sources and policies wired
through the full stack."""


from repro.buffer import ReadWriteBuffer
from repro.core.engine import PaTreeEngine
from repro.core.ops import insert_op, search_op, sync_op, update_op
from repro.core.source import ClosedLoopSource, OpenLoopSource
from repro.core.tree import PaTree
from repro.nvme.device import NvmeDevice, fast_test_profile, i3_nvme_profile
from repro.nvme.driver import NvmeDriver
from repro.sched.naive import NaiveScheduling
from repro.sched.probe_model import cached_probe_model
from repro.sched.workload_aware import WorkloadAwareScheduling
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.simos.scheduler import OsProfile, SimOS


def payload(key):
    return (key % 2**64).to_bytes(8, "little")


def build(seed=1, policy=None, preload=500, profile=None, **kwargs):
    engine = Engine(seed=seed)
    simos = SimOS(engine, OsProfile(cores=8))
    device = NvmeDevice(engine, profile or fast_test_profile())
    driver = NvmeDriver(device)
    tree = PaTree.create(device)
    if preload:
        tree.bulk_load([(k * 10, payload(k * 10)) for k in range(1, preload + 1)])
    pa = PaTreeEngine(
        simos,
        driver,
        tree,
        policy or NaiveScheduling(),
        source=ClosedLoopSource([], window=16),
        **kwargs,
    )
    return engine, pa


class TestOpenLoop:
    def test_open_loop_completes_all(self):
        engine, pa = build()
        rng = RngRegistry(9).stream("arrivals")
        ops = [search_op((k % 500 + 1) * 10) for k in range(200)]
        pa.source = OpenLoopSource(ops, rate_per_sec=100_000, rng=rng)
        pa.run_to_completion()
        assert pa.completed.value == 200
        assert all(op.result is not None for op in ops)

    def test_open_loop_with_yielding_policy(self):
        model = cached_probe_model(i3_nvme_profile())
        policy = WorkloadAwareScheduling(model)
        engine, pa = build(policy=policy, profile=i3_nvme_profile())
        rng = RngRegistry(9).stream("arrivals")
        ops = [search_op((k % 500 + 1) * 10) for k in range(100)]
        pa.source = OpenLoopSource(ops, rate_per_sec=5_000, rng=rng)
        pa.run_to_completion()
        assert pa.completed.value == 100
        # at 5K ops/s the worker slept most of the time
        busy_fraction = pa.simos.total_busy_ns() / engine.now
        assert busy_fraction < 0.7


class TestBackpressure:
    def test_giant_sync_does_not_overrun_ring(self):
        # dirty far more pages than the submission ring holds
        engine, pa = build(
            preload=120_000,
            buffer=ReadWriteBuffer(8_192),
        )
        # stride past the leaf fan-out so every update dirties its own leaf
        ops = [update_op(k * 24 * 10, payload(k + 1)) for k in range(1, 5_001)]
        pa.source = ClosedLoopSource(ops, window=32)
        pa.run_to_completion()
        assert pa.buffer.dirty_count > 4_096  # more dirty than the SQ
        pa.source = ClosedLoopSource([sync_op()], window=1)
        pa._shutdown = False
        pa.run_to_completion()  # would raise QueueFullError without metering
        assert pa.buffer.dirty_count == 0
        pa.tree.validate()

    def test_same_page_writes_serialize_in_order(self):
        # repeated updates to one key: the page's final media content
        # must be the last write, regardless of device reordering
        engine, pa = build(preload=100)
        ops = [update_op(10, payload(version)) for version in range(1, 60)]
        pa.source = ClosedLoopSource(ops, window=16)
        pa.run_to_completion()
        assert dict(pa.tree.iterate_items_raw())[10] == payload(59)


class TestEngineMisc:
    def test_zero_operations_run(self):
        engine, pa = build()
        pa.source = ClosedLoopSource([], window=4)
        pa.run_to_completion()
        assert pa.completed.value == 0

    def test_duplicate_batches_accumulate_stats(self):
        engine, pa = build()
        for _ in range(3):
            pa.source = ClosedLoopSource([search_op(10)], window=1)
            pa._shutdown = False
            pa.run_to_completion()
        assert pa.completed.value == 3
        assert len(pa.latencies) == 3

    def test_insert_beyond_all_keys_appends(self):
        engine, pa = build(preload=100)
        ops = [insert_op(10_000 + k, payload(k)) for k in range(100)]
        pa.source = ClosedLoopSource(ops, window=8)
        pa.run_to_completion()
        keys = [k for k, _v in pa.tree.iterate_items_raw()]
        assert keys[-1] == 10_099
        pa.tree.validate()

    def test_engine_survives_mixed_hot_key_contention(self):
        # every op targets the same key: maximal latch contention
        engine, pa = build(preload=100)
        ops = []
        for version in range(80):
            ops.append(update_op(10, payload(version)))
            ops.append(search_op(10))
        pa.source = ClosedLoopSource(ops, window=32)
        pa.run_to_completion()
        assert pa.latch_wait_events.value > 0
        pa.tree.validate()

    def test_probe_deadline_bounds_detection(self):
        # single op on an otherwise idle engine: the workload-aware
        # gate must still detect the completion within the deadline
        model = cached_probe_model(i3_nvme_profile())
        policy = WorkloadAwareScheduling(model)
        engine, pa = build(policy=policy, profile=i3_nvme_profile())
        pa.source = ClosedLoopSource([search_op(10)], window=1)
        pa.run_to_completion()
        (length,) = [pa.latencies._samples[0]]
        # service ~85us + bounded detection delay (<= deadline + granule)
        assert length < 400_000
