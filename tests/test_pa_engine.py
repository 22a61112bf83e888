"""Integration tests for the PA-Tree engine: full operations through
the polled-mode asynchronous working thread on the simulated stack."""

from repro.buffer import ReadOnlyBuffer, ReadWriteBuffer
from repro.core.engine import PaTreeEngine, POLLER_CONTINUOUS
from repro.core.ops import (
    delete_op,
    insert_op,
    range_op,
    search_op,
    sync_op,
    update_op,
)
from repro.core.source import ClosedLoopSource
from repro.core.tree import PaTree
from repro.nvme.device import NvmeDevice, fast_test_profile
from repro.nvme.driver import NvmeDriver
from repro.sched.naive import NaiveScheduling
from repro.sim.engine import Engine
from repro.simos.scheduler import OsProfile, SimOS


def payload(key):
    return (key & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")


def build(seed=1, buffer=None, preload=2_000, **engine_kwargs):
    engine = Engine(seed=seed)
    simos = SimOS(engine, OsProfile(cores=8))
    device = NvmeDevice(engine, fast_test_profile())
    driver = NvmeDriver(device)
    tree = PaTree.create(device)
    if preload:
        tree.bulk_load([(k * 100, payload(k * 100)) for k in range(1, preload + 1)])
    pa = PaTreeEngine(
        simos,
        driver,
        tree,
        NaiveScheduling(),
        source=ClosedLoopSource([], window=32),
        buffer=buffer,
        **engine_kwargs,
    )
    return pa


def run_ops(pa, operations, window=32):
    pa.source = ClosedLoopSource(operations, window=window)
    pa._shutdown = False
    pa.run_to_completion()
    return operations


class TestBasicOperations:
    def test_search_hit_and_miss(self):
        pa = build()
        hit, miss = run_ops(pa, [search_op(100), search_op(101)])
        assert hit.result == payload(100)
        assert miss.result is None

    def test_insert_then_search(self):
        pa = build()
        ops = run_ops(pa, [insert_op(55, payload(55))])
        assert ops[0].result is True
        (found,) = run_ops(pa, [search_op(55)])
        assert found.result == payload(55)
        assert pa.tree.validate()["keys"] == 2_001

    def test_insert_existing_overwrites(self):
        pa = build()
        (op,) = run_ops(pa, [insert_op(100, payload(9))])
        assert op.result is False
        assert pa.tree.meta.key_count == 2_000

    def test_update_existing_and_missing(self):
        pa = build()
        hit, miss = run_ops(pa, [update_op(100, payload(1)), update_op(101, payload(1))])
        assert hit.result is True
        assert miss.result is False

    def test_delete(self):
        pa = build()
        hit, miss = run_ops(pa, [delete_op(100), delete_op(100_000_001)])
        assert hit.result is True
        assert miss.result is False
        (gone,) = run_ops(pa, [search_op(100)])
        assert gone.result is None
        assert pa.tree.validate()["keys"] == 1_999

    def test_range_search(self):
        pa = build()
        (op,) = run_ops(pa, [range_op(100, 1000)])
        assert [k for k, _v in op.result] == list(range(100, 1001, 100))

    def test_range_with_limit(self):
        pa = build()
        (op,) = run_ops(pa, [range_op(100, 100_000, limit=7)])
        assert len(op.result) == 7

    def test_range_empty(self):
        pa = build()
        (op,) = run_ops(pa, [range_op(101, 102)])
        assert op.result == []

    def test_latency_recorded(self):
        pa = build()
        (op,) = run_ops(pa, [search_op(100)])
        assert op.latency_ns > 0
        assert len(pa.latencies) == 1


class TestSplitsAndMerges:
    def test_many_inserts_cause_splits(self):
        pa = build(preload=0)
        n = 600
        ops = [insert_op(k, payload(k)) for k in range(1, n + 1)]
        run_ops(pa, ops)
        stats = pa.tree.validate()
        assert stats["keys"] == n
        assert stats["levels"] >= 2

    def test_many_deletes_cause_merges(self):
        pa = build(preload=2_000)
        ops = [delete_op(k * 100) for k in range(1, 1_901)]
        run_ops(pa, ops)
        stats = pa.tree.validate()
        assert stats["keys"] == 100
        remaining = [k for k, _v in pa.tree.iterate_items_raw()]
        assert remaining == [k * 100 for k in range(1_901, 2_001)]

    def test_delete_everything_leaves_empty_tree(self):
        pa = build(preload=300)
        run_ops(pa, [delete_op(k * 100) for k in range(1, 301)])
        assert pa.tree.meta.key_count == 0
        assert list(pa.tree.iterate_items_raw()) == []

    def test_interleaved_mixed_workload(self):
        pa = build(preload=1_000)
        import random

        rng = random.Random(5)
        model = {k * 100: payload(k * 100) for k in range(1, 1_001)}
        ops = []
        for _ in range(800):
            roll = rng.random()
            key = rng.choice(sorted(model)) if model and roll < 0.7 else rng.randrange(1, 10**7)
            if roll < 0.35:
                ops.append(search_op(key))
            elif roll < 0.6:
                ops.append(insert_op(key, payload(key)))
                model[key] = payload(key)
            elif roll < 0.8:
                ops.append(delete_op(key))
                model.pop(key, None)
            else:
                ops.append(update_op(key, payload(key ^ 7)))
                if key in model:
                    model[key] = payload(key ^ 7)
        run_ops(pa, ops)
        assert dict(pa.tree.iterate_items_raw()) == model
        pa.tree.validate()


class TestBuffering:
    def test_strong_buffer_reduces_reads(self):
        no_buffer = build(seed=3)
        run_ops(no_buffer, [search_op(100) for _ in range(50)])
        reads_without = no_buffer.driver.device.reads_completed.value

        buffered = build(seed=3, buffer=ReadOnlyBuffer(512))
        run_ops(buffered, [search_op(100) for _ in range(50)])
        reads_with = buffered.driver.device.reads_completed.value
        assert reads_with < reads_without / 3

    def test_weak_buffer_absorbs_writes(self):
        pa = build(buffer=ReadWriteBuffer(4_096))
        ops = [update_op(100, payload(i)) for i in range(50)]
        run_ops(pa, ops)
        writes_before_sync = pa.driver.device.writes_completed.value
        assert writes_before_sync < 5
        (sync,) = run_ops(pa, [sync_op()])
        assert sync.result >= 1
        # after sync the update is durable on media
        leaf_value = dict(pa.tree.iterate_items_raw())[100]
        assert leaf_value == payload(49)

    def test_strong_persistence_durable_per_op(self):
        pa = build(buffer=ReadOnlyBuffer(512))
        run_ops(pa, [update_op(100, payload(77))])
        assert dict(pa.tree.iterate_items_raw())[100] == payload(77)

    def test_sync_on_strong_is_noop(self):
        pa = build(buffer=ReadOnlyBuffer(128))
        (op,) = run_ops(pa, [sync_op()])
        assert op.result == 0

    def test_tiny_weak_buffer_evictions_flush(self):
        pa = build(buffer=ReadWriteBuffer(8))
        ops = [insert_op(k, payload(k)) for k in range(1, 301)]
        run_ops(pa, ops)
        run_ops(pa, [sync_op()])
        assert pa.tree.validate()["keys"] == 2_297  # 3 keys overlap the preload


class TestPollerVariants:
    def test_dedicated_poller_produces_same_results(self):
        pa = build(dedicated_poller=POLLER_CONTINUOUS)
        ops = run_ops(pa, [search_op(100), insert_op(7, payload(7))])
        assert ops[0].result == payload(100)
        assert ops[1].result is True
        assert pa.poller_thread is not None


class TestAccounting:
    def test_no_context_switches_single_worker(self):
        pa = build()
        run_ops(pa, [search_op(k * 100) for k in range(1, 100)])
        assert pa.simos.context_switches.value == 0

    def test_stats_shape(self):
        pa = build()
        run_ops(pa, [search_op(100)])
        stats = pa.stats()
        assert stats["completed"] == 1
        assert stats["completed_by_kind"] == {"search": 1}
        assert stats["probes"] >= 1
