"""Persistence-semantics tests.

The paper's strong persistence contract: when an update operation
completes, its modification is on the NVM and survives a crash that
happens afterwards.  We "crash" by discarding every volatile structure
(buffers, caches, in-memory meta) and reopening the tree from the
device alone.
"""


from repro.buffer import ReadOnlyBuffer, ReadWriteBuffer
from repro.core.engine import PaTreeEngine
from repro.core.ops import delete_op, insert_op, sync_op, update_op
from repro.core.source import ClosedLoopSource
from repro.core.tree import PaTree
from repro.nvme.device import NvmeDevice, fast_test_profile
from repro.nvme.driver import NvmeDriver
from repro.sched.naive import NaiveScheduling
from repro.sim.engine import Engine
from repro.simos.scheduler import OsProfile, SimOS


def payload(key):
    return (key % 2**64).to_bytes(8, "little")


def build(buffer=None, preload=500):
    engine = Engine(seed=1)
    simos = SimOS(engine, OsProfile(cores=4))
    device = NvmeDevice(engine, fast_test_profile())
    driver = NvmeDriver(device)
    tree = PaTree.create(device)
    tree.bulk_load([(k * 10, payload(k * 10)) for k in range(1, preload + 1)])
    pa = PaTreeEngine(
        simos,
        driver,
        tree,
        NaiveScheduling(),
        source=ClosedLoopSource([], window=16),
        buffer=buffer,
    )
    return device, tree, pa


def run_ops(pa, operations):
    pa.source = ClosedLoopSource(operations, window=16)
    pa._shutdown = False
    pa.run_to_completion()
    return operations


def crash_and_reopen(device):
    """Reopen from media only: every volatile structure is gone."""
    return PaTree.open(device, recover=True)


class TestStrongPersistence:
    def test_completed_updates_survive_crash(self):
        device, _tree, pa = build(buffer=ReadOnlyBuffer(64))
        run_ops(pa, [update_op(10, payload(99)), insert_op(5, payload(5))])
        recovered = crash_and_reopen(device)
        data = dict(recovered.iterate_items_raw())
        assert data[10] == payload(99)
        assert data[5] == payload(5)
        recovered.validate()

    def test_completed_deletes_survive_crash(self):
        device, _tree, pa = build()
        run_ops(pa, [delete_op(10)])
        recovered = crash_and_reopen(device)
        assert 10 not in dict(recovered.iterate_items_raw())

    def test_split_survives_crash(self):
        device, _tree, pa = build(preload=500)
        fresh = [insert_op(k * 10 + 1, payload(k)) for k in range(1, 400)]
        run_ops(pa, fresh)
        recovered = crash_and_reopen(device)
        data = dict(recovered.iterate_items_raw())
        for op in fresh:
            assert data[op.key] == op.payload
        recovered.validate()

    def test_root_split_survives_crash(self):
        device, tree, pa = build(preload=0)
        height_before = tree.meta.height
        run_ops(pa, [insert_op(k, payload(k)) for k in range(1, 200)])
        assert tree.meta.height > height_before
        recovered = crash_and_reopen(device)
        assert recovered.meta.height == tree.meta.height
        assert len(dict(recovered.iterate_items_raw())) == 199
        recovered.validate()


class TestWeakPersistence:
    def test_unsynced_updates_may_be_stale_after_crash(self):
        device, _tree, pa = build(buffer=ReadWriteBuffer(1_024))
        run_ops(pa, [update_op(10, payload(777))])
        recovered = crash_and_reopen(device)
        # without a sync the media legitimately holds the old value
        assert dict(recovered.iterate_items_raw())[10] == payload(10)

    def test_synced_updates_survive_crash(self):
        device, _tree, pa = build(buffer=ReadWriteBuffer(1_024))
        run_ops(pa, [update_op(10, payload(777)), insert_op(3, payload(3))])
        run_ops(pa, [sync_op()])
        recovered = crash_and_reopen(device)
        data = dict(recovered.iterate_items_raw())
        assert data[10] == payload(777)
        assert data[3] == payload(3)
        recovered.validate()

    def test_evicted_dirty_pages_already_durable(self):
        # a tiny buffer forces evictions: those flushes land on media
        # even without sync
        device, _tree, pa = build(buffer=ReadWriteBuffer(4))
        ops = [update_op(k * 10, payload(k + 1)) for k in range(1, 200)]
        run_ops(pa, ops)
        recovered = crash_and_reopen(device)
        data = dict(recovered.iterate_items_raw())
        updated_on_media = sum(
            1 for k in range(1, 200) if data[k * 10] == payload(k + 1)
        )
        assert updated_on_media > 100  # most evictions flushed


class TestReopenedTreeIsUsable:
    def test_operations_continue_after_reopen(self):
        device, _tree, pa = build()
        run_ops(pa, [insert_op(7, payload(7))])
        recovered = crash_and_reopen(device)

        engine = Engine(seed=9)
        simos = SimOS(engine, OsProfile(cores=4))
        # note: same device object; a new engine only re-times events
        device.engine = engine
        device.substrate.rng = engine.rng.stream("nvme2")
        device.outstanding._clock = engine.clock
        pa2 = PaTreeEngine(
            simos,
            NvmeDriver(device),
            recovered,
            NaiveScheduling(),
            source=ClosedLoopSource([], window=8),
        )
        pa2.source = ClosedLoopSource(
            [insert_op(8, payload(8)), delete_op(7)], window=8
        )
        pa2.run_to_completion()
        data = dict(recovered.iterate_items_raw())
        assert 8 in data and 7 not in data
        recovered.validate()
