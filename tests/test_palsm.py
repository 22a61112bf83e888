"""Tests for the polled-mode asynchronous LSM store (PA-LSM)."""

import random

import pytest

from repro.baselines.lsm import LeveledStore, LsmConfig
from repro.core.ops import ST_DONE, delete_op, insert_op, range_op, search_op, sync_op
from repro.core.source import ClosedLoopSource
from repro.errors import StorageError
from repro.nvme.command import OP_READ, Completion, IoStatus, NvmeCommand
from repro.nvme.device import NvmeDevice, fast_test_profile
from repro.nvme.driver import NvmeDriver
from repro.palsm import PolledLsmWorker
from repro.sched.naive import NaiveScheduling
from repro.sim.engine import Engine
from repro.simos.scheduler import OsProfile, SimOS


def payload(key):
    return (key % 2**64).to_bytes(8, "little")


def build(persistence="strong", memtable_entries=100, **kwargs):
    engine = Engine(seed=8)
    simos = SimOS(engine, OsProfile(cores=4))
    device = NvmeDevice(engine, fast_test_profile())
    driver = NvmeDriver(device)
    store = LeveledStore(
        device,
        LsmConfig(memtable_entries=memtable_entries, wal_pages=4_096, **kwargs),
        persistence,
    )
    worker = PolledLsmWorker(
        simos, driver, store, NaiveScheduling(), ClosedLoopSource([], window=16)
    )
    return device, store, worker


class TestPaLsmBasics:
    def test_put_get_in_memtable(self):
        _device, _store, worker = build()
        ops = worker.run_operations(
            [insert_op(5, payload(5)), search_op(5), search_op(6)]
        )
        assert ops[1].result == payload(5)
        assert ops[2].result is None

    def test_flush_and_read_back(self):
        _device, store, worker = build(memtable_entries=50)
        inserts = [insert_op(k, payload(k)) for k in range(300)]
        worker.run_operations(inserts, window=8)
        assert store.flushes >= 4
        searches = worker.run_operations([search_op(k) for k in range(0, 300, 17)])
        assert all(op.result == payload(op.key) for op in searches)

    def test_delete_tombstone_masks_flushed_value(self):
        _device, store, worker = build(memtable_entries=20)
        worker.run_operations([insert_op(k, payload(k)) for k in range(60)])
        worker.run_operations([delete_op(7)])
        (found,) = worker.run_operations([search_op(7)])
        assert found.result is None

    def test_range_across_memtable_and_tables(self):
        _device, store, worker = build(memtable_entries=25)
        worker.run_operations([insert_op(k * 2, payload(k)) for k in range(100)])
        worker.run_operations([insert_op(31, payload(31))])  # stays in memtable
        (op,) = worker.run_operations([range_op(20, 40)])
        keys = [k for k, _v in op.result]
        assert keys == sorted(set(list(range(20, 41, 2)) + [31]))

    def test_range_keeps_the_memtables_it_started_with(self):
        """A put rotates the memtable and its flush lands while a range
        admitted before it still reads its fifty tables.  The range
        walks the memtables it started with; it used to take the active
        one only once its reads were in, and so missed every key of the
        memtable flushed meanwhile."""
        _device, store, worker = build(persistence="weak", memtable_entries=4)
        store.bulk_load([(k * 10, payload(k)) for k in range(1, 201)])
        worker.run_operations([insert_op(k, payload(k)) for k in (5, 15, 25)])
        scan = range_op(0, 10**6)
        puts = [insert_op(1_001 + k, payload(k)) for k in range(3)]
        worker.run_operations([scan] + puts, window=8)
        assert store.flushes == 1 and not store.immutables
        keys = {k for k, _v in scan.result}
        assert {5, 15, 25} | {k * 10 for k in range(1, 201)} <= keys

    def test_compaction_triggered_and_correct(self):
        _device, store, worker = build(memtable_entries=20, level0_limit=2)
        ops = [insert_op(k % 60, (k).to_bytes(8, "little")) for k in range(600)]
        worker.run_operations(ops, window=8)
        assert store.compactions >= 1
        assert len(store.levels[0]) <= store.config.level0_limit
        checks = worker.run_operations([search_op(k) for k in range(60)])
        for op in checks:
            # last writer for key k is the largest j < 600 with j % 60 == k
            expected = (540 + op.key).to_bytes(8, "little")
            assert op.result == expected

    def test_bulk_load_then_get(self):
        _device, store, worker = build()
        store.bulk_load([(k * 3, payload(k)) for k in range(500)])
        (op,) = worker.run_operations([search_op(300)])
        assert op.result == payload(100)

    @pytest.mark.parametrize("entries", [0, -5])
    def test_non_positive_memtable_entries_rejected(self, entries):
        with pytest.raises(StorageError):
            build(memtable_entries=entries)

    def test_sync_flushes_wal(self):
        _device, store, worker = build(persistence="weak")
        worker.run_operations([insert_op(1, payload(1))])
        assert store.wal.pending_records() == 1
        (sync,) = worker.run_operations([sync_op()])
        assert store.wal.pending_records() == 0

    def test_strong_persistence_wal_durable_per_op(self):
        _device, store, worker = build(persistence="strong")
        worker.run_operations([insert_op(1, payload(1)), insert_op(2, payload(2))])
        assert store.wal.pending_records() == 0

    def test_quarantined_pages_eventually_freed(self):
        _device, store, worker = build(memtable_entries=20, level0_limit=2)
        worker.run_operations(
            [insert_op(k % 50, payload(k)) for k in range(400)], window=8
        )
        assert store.compactions >= 1
        assert not worker._pending_frees  # drained once ops completed

    def test_a_compaction_alone_in_flight_frees_what_it_retired(self):
        """The barrier is the first seq admitted after the swap: when
        the compaction completes with no operation in flight, its
        retired pages go back to the allocator there and then."""
        _device, store, worker = build(memtable_entries=20, level0_limit=2)
        retired = []
        swap = store._swap

        def recording(*args):
            lbas = swap(*args)
            retired.extend(lbas)
            return lbas

        store._swap = recording
        for k in range(400):
            worker.run_operations([insert_op(k % 50, payload(k))], window=1)
            if store.compactions:
                break
        assert store.compactions == 1
        assert retired
        assert not worker._pending_frees
        assert set(retired) <= set(store.allocator._free)


def test_a_late_read_for_an_aborted_op_stays_out_of_the_block_cache():
    """An aborted batch read can release the quarantine that held its
    other pages, whose LBAs a flush may then reuse: a read of one of
    them completing after the abort must not install the old image."""
    _device, store, worker = build()
    op = search_op(1)
    op.state = ST_DONE
    command = NvmeCommand(OP_READ, 77, data=b"stale", context=op)
    command.submit_ns = 0
    worker._on_io_done(Completion(command, IoStatus.SUCCESS, 0))
    assert store.cache.get(77) is None


class TestPaLsmFuzz:
    def test_equivalent_to_dict(self):
        _device, store, worker = build(memtable_entries=40, level0_limit=2)
        rng = random.Random(21)
        model = {}
        ops = []
        for _ in range(1_200):
            roll = rng.random()
            key = rng.randrange(0, 500)
            if roll < 0.45:
                ops.append(insert_op(key, payload(key ^ rng.randrange(256))))
                model[key] = ops[-1].payload
            elif roll < 0.6:
                ops.append(delete_op(key))
                model.pop(key, None)
            elif roll < 0.85:
                ops.append(search_op(key))
            else:
                ops.append(range_op(key, key + 40))
        # sequential (window=1) so per-op expectations are exact
        worker.run_operations(ops, window=1)
        checks = worker.run_operations([search_op(k) for k in range(500)], window=1)
        for op in checks:
            assert op.result == model.get(op.key), op.key

        (full,) = worker.run_operations([range_op(0, 10**9)])
        assert dict(full.result) == model

    def test_interleaved_window_preserves_final_state(self):
        _device, store, worker = build(memtable_entries=30, level0_limit=2)
        rng = random.Random(5)
        keys = list(range(200))
        ops = [insert_op(k, payload(k)) for k in keys]
        rng.shuffle(ops)
        worker.run_operations(ops, window=16)
        (full,) = worker.run_operations([range_op(0, 10**9)])
        assert [k for k, _v in full.result] == keys
