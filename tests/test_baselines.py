"""Integration tests for the synchronous baselines: blocking latches,
I/O services, sync/Blink/LCB tree accessors under concurrency."""

import random

import pytest

from repro.baselines.blink_tree import BlinkTreeAccessor
from repro.baselines.io_service import DedicatedIoService, SharedIoService
from repro.baselines.latching import BlockingLatchTable
from repro.baselines.lcb_tree import LcbTreeAccessor
from repro.baselines.runner import BaselineRunner
from repro.baselines.sync_tree import SyncTreeAccessor
from repro.buffer import ReadOnlyBuffer, ReadWriteBuffer
from repro.core.latch import EXCLUSIVE, SHARED
from repro.core.ops import (
    OpSpec,
    batch_op,
    delete_op,
    insert_op,
    range_op,
    search_op,
    sync_op,
    update_op,
)
from repro.core.tree import PaTree
from repro.errors import IoError, TreeError
from repro.faults import FaultConfig
from repro.nvme.device import NvmeDevice, fast_test_profile
from repro.nvme.driver import NvmeDriver
from repro.sim.engine import Engine
from repro.simos.scheduler import OsProfile, SimOS


def payload(key):
    return (key % 2**64).to_bytes(8, "little")


def make_machine(seed=1, preload=1_000, faults=None):
    engine = Engine(seed=seed)
    simos = SimOS(engine, OsProfile(cores=8))
    device = NvmeDevice(engine, fast_test_profile(), faults=faults)
    driver = NvmeDriver(device)
    tree = PaTree.create(device)
    if preload:
        tree.bulk_load([(k * 10, payload(k * 10)) for k in range(1, preload + 1)])
    return engine, simos, device, driver, tree


def mixed_ops(seed, n, preload):
    rng = random.Random(seed)
    model = {k * 10: payload(k * 10) for k in range(1, preload + 1)}
    ops = []
    for _ in range(n):
        roll = rng.random()
        key = rng.choice(sorted(model)) if model and roll < 0.7 else rng.randrange(1, 10**7)
        if roll < 0.3:
            ops.append(search_op(key))
        elif roll < 0.5:
            ops.append(insert_op(key, payload(key)))
            model[key] = payload(key)
        elif roll < 0.65:
            ops.append(update_op(key, payload(key ^ 9)))
            if key in model:
                model[key] = payload(key ^ 9)
        elif roll < 0.8:
            ops.append(delete_op(key))
            model.pop(key, None)
        else:
            ops.append(range_op(key, key + 5_000, limit=16))
    return ops, model


class TestBlockingLatchTable:
    def test_exclusive_serializes_threads(self):
        engine, simos, _device, _driver, _tree = make_machine(preload=0)
        table = BlockingLatchTable()
        active = {"n": 0, "max": 0}

        def body():
            from repro.simos.thread import Cpu

            for _ in range(10):
                yield from table.acquire(7, EXCLUSIVE)
                active["n"] += 1
                active["max"] = max(active["max"], active["n"])
                yield Cpu(1_000, "real_work")
                active["n"] -= 1
                yield from table.release(7, EXCLUSIVE)

        for _ in range(4):
            simos.spawn(body())
        engine.run()
        assert active["max"] == 1
        table.assert_quiescent()

    def test_readers_share(self):
        engine, simos, _device, _driver, _tree = make_machine(preload=0)
        table = BlockingLatchTable()
        active = {"n": 0, "max": 0}

        def body():
            from repro.simos.thread import Cpu

            yield from table.acquire(7, SHARED)
            active["n"] += 1
            active["max"] = max(active["max"], active["n"])
            # hold long enough to overlap despite the table-mutex
            # serialization of the acquire path itself
            yield Cpu(50_000, "real_work")
            active["n"] -= 1
            yield from table.release(7, SHARED)

        for _ in range(4):
            simos.spawn(body())
        engine.run()
        assert active["max"] == 4


class TestIoServices:
    @pytest.mark.parametrize("service_kind", ["dedicated", "shared"])
    def test_blocking_read_write_roundtrip(self, service_kind):
        engine, simos, device, driver, _tree = make_machine(preload=0)
        if service_kind == "dedicated":
            service = DedicatedIoService(driver)
        else:
            service = SharedIoService(driver)
        service.start(simos)
        tls = service.register_thread()
        results = {}

        def body():
            yield from service.write(tls, 5, b"\xab" * 512)
            data = yield from service.read(tls, 5)
            results["data"] = data

        thread = simos.spawn(body())
        engine.run(until=lambda: thread.done)
        service.stop()
        engine.run()
        assert results["data"] == b"\xab" * 512

    def test_shared_daemon_serves_many_threads(self):
        engine, simos, device, driver, _tree = make_machine(preload=0)
        service = SharedIoService(driver)
        service.start(simos)
        done = []

        def body(lba):
            yield from service.write(tls_map[lba], lba, bytes([lba % 256]) * 512)
            data = yield from service.read(tls_map[lba], lba)
            done.append(data[0] == lba % 256)

        tls_map = {}
        threads = []
        for lba in range(1, 9):
            tls_map[lba] = service.register_thread()
            threads.append(simos.spawn(body(lba)))
        engine.run(until=lambda: all(t.done for t in threads))
        service.stop()
        engine.run()
        assert done == [True] * 8


@pytest.mark.parametrize(
    "accessor_kind,persistence",
    [
        ("sync", "strong"),
        ("sync", "weak"),
        ("blink", "strong"),
        ("blink", "weak"),
        ("lcb", "strong"),
        ("lcb", "weak"),
    ],
)
def test_accessor_fuzz_vs_model(accessor_kind, persistence):
    preload = 1_000
    engine, simos, device, driver, tree = make_machine(seed=4, preload=preload)
    io_service = DedicatedIoService(driver)
    latches = BlockingLatchTable()
    buffer = None
    if persistence == "weak" and accessor_kind != "lcb":
        buffer = ReadWriteBuffer(256)
    elif accessor_kind == "lcb":
        buffer = ReadOnlyBuffer(256)

    if accessor_kind == "sync":
        accessor = SyncTreeAccessor(tree, io_service, latches, buffer, persistence)
    elif accessor_kind == "blink":
        accessor = BlinkTreeAccessor(tree, io_service, latches, buffer, persistence)
    else:
        accessor = LcbTreeAccessor(
            tree, io_service, latches, buffer, persistence, wal_pages=4_096
        )

    ops, model = mixed_ops(11, 800, preload)
    if persistence == "weak":
        ops.append(sync_op())
    runner = BaselineRunner(simos, accessor, ops, n_threads=8, name=accessor_kind)
    runner.run_to_completion()
    latches.assert_quiescent()

    if accessor_kind == "lcb":
        accessor.materialize_delta()
    elif persistence == "weak":
        # drain the rw buffer to media for raw validation
        for page_id, data in accessor.buffer.take_dirty():
            device.raw_write(page_id, data)

    assert dict(tree.iterate_items_raw()) == model
    tree.validate()


def test_failed_io_releases_the_latches_it_held():
    """An op that dies with IoError must not wedge the ops behind it:
    the search fails holding the leaf shared, the insert fails holding
    root and leaf exclusive, and the next search shares that root."""
    _engine, simos, device, driver, tree = make_machine(
        preload=2_000, faults=FaultConfig()
    )
    leaf = tree.read_node_raw(tree.meta.root_page)
    while not leaf.is_leaf:
        leaf = tree.read_node_raw(leaf.child_for(500))
    device.fault_injector.poison(leaf.page_id)

    latches = BlockingLatchTable()
    accessor = SyncTreeAccessor(tree, DedicatedIoService(driver), latches)
    ops = [search_op(500), insert_op(500, payload(1)), search_op(1_500)]
    runner = BaselineRunner(simos, accessor, ops, n_threads=1, name="sync")
    runner.run_to_completion()

    assert isinstance(ops[0].error, IoError)
    assert isinstance(ops[1].error, IoError)
    assert ops[2].error is None and ops[2].result == payload(1_500)
    assert runner.failed_ops.value == 2
    latches.assert_quiescent()


def test_sync_accessor_rejects_batches():
    """The batch plan has only the polled interpreter."""
    _engine, simos, _device, driver, tree = make_machine(preload=100)
    accessor = SyncTreeAccessor(tree, DedicatedIoService(driver), BlockingLatchTable())
    ops = [batch_op([OpSpec.get(10), OpSpec.put(15, payload(15))])]
    runner = BaselineRunner(simos, accessor, ops, n_threads=1, name="sync")
    with pytest.raises(TreeError, match="unknown operation kind"):
        runner.run_to_completion()


def test_blink_reads_need_no_latches():
    preload = 2_000
    engine, simos, device, driver, tree = make_machine(seed=9, preload=preload)
    latches = BlockingLatchTable()
    accessor = BlinkTreeAccessor(tree, DedicatedIoService(driver), latches)
    ops = [search_op(k * 10) for k in range(1, 500)]
    runner = BaselineRunner(simos, accessor, ops, n_threads=8, name="blink")
    runner.run_to_completion()
    assert latches.acquisitions == 0  # pure reads never latched
    assert all(op.result == payload(op.key) for op in ops)


def test_lcb_checkpoint_writes_back():
    engine, simos, device, driver, tree = make_machine(seed=2, preload=500)
    accessor = LcbTreeAccessor(
        tree,
        DedicatedIoService(driver),
        BlockingLatchTable(),
        buffer=None,
        persistence="weak",
        wal_pages=4_096,
        checkpoint_pages=16,
    )
    ops = [update_op(k * 10, payload(k)) for k in range(1, 400)]
    runner = BaselineRunner(simos, accessor, ops, n_threads=4, name="lcb")
    runner.run_to_completion()
    assert accessor.checkpoints >= 1
    accessor.materialize_delta()
    tree.validate()


def test_blink_concurrent_growth_from_empty():
    """Grow a Blink-tree from a single empty leaf under heavy thread
    concurrency: exercises leaf splits, bottom-up parent insertion and
    the concurrent root-growth fallback."""
    engine, simos, device, driver, tree = make_machine(seed=13, preload=0)
    accessor = BlinkTreeAccessor(tree, DedicatedIoService(driver), BlockingLatchTable())
    rng = random.Random(3)
    keys = rng.sample(range(1, 10**6), 1_500)
    ops = [insert_op(k, payload(k)) for k in keys]
    runner = BaselineRunner(simos, accessor, ops, n_threads=16, name="blink-growth")
    runner.run_to_completion()
    assert sorted(k for k, _v in tree.iterate_items_raw()) == sorted(keys)
    tree.validate()
