"""Integration tests for the synchronous baselines: blocking latches,
I/O services, sync/Blink/LCB tree accessors under concurrency."""

import random

import pytest

from repro.baselines.blink_tree import BlinkTreeAccessor
from repro.baselines.io_service import DedicatedIoService, SharedIoService
from repro.baselines.latching import BlockingLatchTable
from repro.baselines.lcb_tree import LcbTreeAccessor
from repro.baselines.lsm import LeveledStore, LsmConfig, LsmStore
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
from repro.core.node import INNER, NODE_MAGIC
from repro.core.source import ClosedLoopSource
from repro.core.tree import PaTree
from repro.errors import IoError
from repro.faults import FaultConfig, FaultInjector
from repro.nvme.command import IoStatus
from repro.nvme.device import NvmeDevice, fast_test_profile
from repro.nvme.driver import NvmeDriver
from repro.palsm import PolledLsmWorker
from repro.sched.naive import NaiveScheduling
from repro.sim.engine import Engine
from repro.sim.hooks import subscribe
from repro.simos.scheduler import OsProfile, SimOS
from repro.storage.wal import WriteAheadLog


def payload(key):
    return (key % 2**64).to_bytes(8, "little")


def make_machine(seed=1, preload=1_000, faults=None, payload_size=8):
    engine = Engine(seed=seed)
    simos = SimOS(engine, OsProfile(cores=8))
    device = NvmeDevice(engine, fast_test_profile(), faults=faults)
    driver = NvmeDriver(device)
    tree = PaTree.create(device, payload_size=payload_size)
    if preload:
        tree.bulk_load([(k * 10, payload(k * 10)) for k in range(1, preload + 1)])
    return engine, simos, device, driver, tree


def leaf_of(tree, key):
    node = tree.read_node_raw(tree.meta.root_page)
    while not node.is_leaf:
        node = tree.read_node_raw(node.child_for(key))
    return node


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


def started_tls(simos, driver):
    """A thread handle of a started dedicated I/O service."""
    service = DedicatedIoService(driver)
    service.start(simos)
    return service.register_thread()


class TestBlockingLatchTable:
    def test_exclusive_serializes_threads(self):
        engine, simos, _device, driver, _tree = make_machine(preload=0)
        table = BlockingLatchTable()
        active = {"n": 0, "max": 0}

        def body():
            tls = started_tls(simos, driver)
            op = search_op(7)
            for _ in range(10):
                yield from table.acquire(tls, op, 7, EXCLUSIVE)
                active["n"] += 1
                active["max"] = max(active["max"], active["n"])
                simos.cpu(1_000, "real_work") or (yield)
                active["n"] -= 1
                yield from table.release(tls, op, 7)

        for _ in range(4):
            simos.spawn(body())
        engine.run()
        assert active["max"] == 1
        assert table.grants == 40
        table.assert_quiescent()

    def test_readers_share(self):
        engine, simos, _device, driver, _tree = make_machine(preload=0)
        table = BlockingLatchTable()
        active = {"n": 0, "max": 0}

        def body():
            tls = started_tls(simos, driver)
            op = search_op(7)
            yield from table.acquire(tls, op, 7, SHARED)
            active["n"] += 1
            active["max"] = max(active["max"], active["n"])
            # hold long enough to overlap despite the table-mutex
            # serialization of the acquire path itself
            simos.cpu(50_000, "real_work") or (yield)
            active["n"] -= 1
            yield from table.release(tls, op, 7)

        for _ in range(4):
            simos.spawn(body())
        engine.run()
        assert active["max"] == 4
        assert table.waits == 0

    def test_queued_requests_are_granted_in_fifo_order_without_barging(self):
        """With X held, S, X, S queue up in that order.  The release
        grants the first S only (the X behind it conflicts, and the last
        S may not pass it), the S release grants the X, the X release
        the last S — the order the polled engine's table gives.  An S
        that arrives while the first S holds queues behind the X too."""
        engine, simos, _device, driver, _tree = make_machine(preload=0)
        table = BlockingLatchTable()
        granted = []

        def body(name, mode, start_ns, hold_ns):
            tls = started_tls(simos, driver)
            op = search_op(7)
            simos.cpu(start_ns, "real_work") or (yield)
            yield from table.acquire(tls, op, 7, mode)
            granted.append(name)
            simos.cpu(hold_ns, "real_work") or (yield)
            yield from table.release(tls, op, 7)

        simos.spawn(body("X0", EXCLUSIVE, 1, 200_000))
        simos.spawn(body("S1", SHARED, 20_000, 100_000))
        simos.spawn(body("X2", EXCLUSIVE, 40_000, 50_000))
        simos.spawn(body("S3", SHARED, 60_000, 50_000))
        simos.spawn(body("S4", SHARED, 250_000, 50_000))
        engine.run()
        # the X release grants S3 and S4 together; their threads wake on
        # two cores, either may run first
        assert granted[:3] == ["X0", "S1", "X2"]
        assert sorted(granted[3:]) == ["S3", "S4"]
        assert (table.grants, table.waits) == (5, 4)
        table.assert_quiescent()


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
        simos.run_until_done([thread])
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
        simos.run_until_done(threads)
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
        accessor = SyncTreeAccessor(tree, io_service, latches, buffer)
    elif accessor_kind == "blink":
        accessor = BlinkTreeAccessor(tree, io_service, latches, buffer)
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
    the search fails holding the leaf shared, the insert and the batch
    fail holding root and leaf exclusive (the batch after one group
    already completed), and the next search shares that root."""
    _engine, simos, device, driver, tree = make_machine(
        preload=2_000, faults=FaultConfig()
    )
    device.fault_injector.poison(leaf_of(tree, 500).page_id)

    latches = BlockingLatchTable()
    accessor = SyncTreeAccessor(tree, DedicatedIoService(driver), latches)
    mid_batch = batch_op(
        [OpSpec.put(15, payload(15)), OpSpec.put(500, payload(1)), OpSpec.get(19_000)]
    )
    ops = [search_op(500), insert_op(500, payload(1)), mid_batch, search_op(1_500)]
    runner = BaselineRunner(simos, accessor, ops, n_threads=1, name="sync")
    runner.run_to_completion()

    assert all(isinstance(op.error, IoError) for op in ops[:3])
    assert mid_batch.groups == 1 and mid_batch.specs[mid_batch.cursor].key == 500
    assert ops[3].error is None and ops[3].result == payload(1_500)
    assert runner.failed_ops.value == 3
    latches.assert_quiescent()


def test_blink_failed_io_releases_the_latches_it_held():
    """Blink writers read the leaf latch-free, latch it, then re-read
    it: the leaf goes bad after its first read, so the re-read dies
    under the latch, which must be handed back.  Later ops on other
    threads still finish."""
    _engine, simos, device, driver, tree = make_machine(
        preload=2_000, faults=FaultConfig()
    )
    leaf_id = leaf_of(tree, 500).page_id

    def poison_once_read(completion):
        if completion.command.lba == leaf_id:
            device.fault_injector.poison(leaf_id)

    subscribe(device, "on_complete", poison_once_read)
    latches = BlockingLatchTable()
    accessor = BlinkTreeAccessor(tree, DedicatedIoService(driver), latches)
    ops = [
        update_op(500, payload(1)),
        update_op(15_000, payload(2)),
        insert_op(15_001, payload(3)),
        search_op(1_500),
    ]
    runner = BaselineRunner(simos, accessor, ops, n_threads=4, name="blink")
    runner.run_to_completion()

    assert isinstance(ops[0].error, IoError)
    assert latches.grants == 3  # the failed update did latch
    assert [op.result for op in ops[1:]] == [True, True, payload(1_500)]
    assert runner.failed_ops.value == 1
    latches.assert_quiescent()


class FailOneWrite(FaultInjector):
    """Fails the first page write ``matches`` picks, through every
    driver retry and service re-drive of that image."""

    def __init__(self, matches):
        super().__init__(FaultConfig(), rng=None)
        self.matches = matches
        self.failed = None  # (lba, image)

    def complete_status(self, command):
        if command.is_write:
            if self.failed is None and self.matches(command):
                self.failed = (command.lba, bytes(command.data))
            if (command.lba, command.data) == self.failed:
                return IoStatus.MEDIA_ERROR
        return super().complete_status(command)


def test_blink_root_split_that_fails_its_write_gives_the_meta_latch_back():
    """The first inner node ever written is the new root of the first
    root split.  Its write dies, the root stays a leaf, and the very
    next leaf split comes back for the meta page's latch."""

    def is_inner_node(command):
        magic = int.from_bytes(command.data[:2], "little")
        return magic == NODE_MAGIC and command.data[2] == INNER

    def wide(key):
        return bytes([key]) * 200  # two entries to a leaf

    injector = FailOneWrite(is_inner_node)
    _engine, simos, _device, driver, tree = make_machine(
        preload=0, faults=injector, payload_size=200
    )
    latches = BlockingLatchTable()
    accessor = BlinkTreeAccessor(tree, DedicatedIoService(driver), latches)
    keys = list(range(1, 13))
    ops = [insert_op(k, wide(k)) for k in keys] + [search_op(k) for k in keys]
    runner = BaselineRunner(simos, accessor, ops, n_threads=1, name="blink")
    runner.run_to_completion()

    assert injector.failed is not None
    assert [op.key for op in ops if op.error is not None] == [3]
    assert isinstance(ops[2].error, IoError)
    assert tree.meta.height > 1  # a later root split went through
    # the failed insert had written its leaves before the root grew
    assert [op.result for op in ops[len(keys):]] == [wide(k) for k in keys]
    latches.assert_quiescent()


@pytest.mark.parametrize("accessor_cls", [SyncTreeAccessor, BlinkTreeAccessor])
def test_root_growth_writes_the_meta_page_of_its_own_lba_range(accessor_cls):
    """A tree carved out at ``base_lba`` (the shared-device shape) keeps
    its meta page there: the blocking baselines' root growth must
    rewrite that page, not LBA 0, so a reopen sees the new root."""
    base = 5_000
    engine = Engine(seed=1)
    simos = SimOS(engine, OsProfile(cores=8))
    device = NvmeDevice(engine, fast_test_profile())
    tree = PaTree.create(device, payload_size=200, base_lba=base)
    lba0 = device.raw_read(0)
    io_service = DedicatedIoService(NvmeDriver(device))
    accessor = accessor_cls(tree, io_service, BlockingLatchTable())
    ops = [insert_op(k, bytes([k]) * 200) for k in range(1, 13)]
    BaselineRunner(simos, accessor, ops, n_threads=1).run_to_completion()

    assert tree.meta.height >= 2
    reopened = PaTree.open(device, base_lba=base)
    assert (reopened.meta.root_page, reopened.meta.height) == (
        tree.meta.root_page,
        tree.meta.height,
    )
    assert device.raw_read(0) == lba0


def test_eviction_flush_that_fails_gives_the_page_flush_mutex_back():
    """A one-page write-back buffer evicts the previous dirty leaf on
    every update.  The first flush of one leaf dies; the next flush of
    that leaf must not find its per-page mutex still taken."""
    probe = make_machine(preload=200)[4]
    leaf_ids = [leaf_of(probe, key).page_id for key in (100, 1_900)]
    injector = FailOneWrite(lambda command: command.lba == leaf_ids[0])
    _engine, simos, _device, driver, tree = make_machine(
        preload=200, faults=injector
    )
    assert [leaf_of(tree, key).page_id for key in (100, 1_900)] == leaf_ids
    latches = BlockingLatchTable()
    accessor = SyncTreeAccessor(
        tree, DedicatedIoService(driver), latches, ReadWriteBuffer(1)
    )
    ops = [update_op(key, payload(turn)) for turn in range(1, 4) for key in (100, 1_900)]
    ops += [search_op(100), search_op(1_900), sync_op()]
    runner = BaselineRunner(simos, accessor, ops, n_threads=1, name="sync")
    runner.run_to_completion()

    # the update of 1_900 that evicted the dirty first leaf took the error
    assert [index for index, op in enumerate(ops) if op.error is not None] == [1]
    assert injector.failed[0] == leaf_ids[0]
    assert [op.result for op in ops[6:8]] == [payload(3), payload(3)]
    latches.assert_quiescent()


@pytest.mark.parametrize("persistence", ["strong", "weak"])
def test_lsm_write_that_fails_gives_the_writer_mutex_back(persistence):
    """The first WAL write dies through every re-drive: under strong
    persistence inside the first insert, under weak inside the first
    sync.  Both hold the store's writer mutex, and every later write and
    read takes it again."""
    injector = FailOneWrite(lambda command: True)
    _engine, simos, device, driver, _tree = make_machine(
        preload=0, faults=injector
    )
    store = LsmStore(
        device, DedicatedIoService(driver), LsmConfig(), persistence=persistence
    )
    keys = [10, 20, 30, 40, 50]
    ops = [insert_op(k, payload(k)) for k in keys]
    if persistence == "weak":
        ops += [sync_op(), insert_op(60, payload(60)), sync_op()]
    ops.append(search_op(50))
    runner = BaselineRunner(simos, store, ops, n_threads=1, name="lsm")
    runner.run_to_completion()

    failed = 0 if persistence == "strong" else len(keys)
    assert [i for i, op in enumerate(ops) if op.error is not None] == [failed]
    assert isinstance(ops[failed].error, IoError)
    assert ops[-1].result == payload(50)
    assert store.wal.pending_records() == 0


@pytest.mark.parametrize("interpreter", ["blocking", "polled"])
def test_lsm_group_commit_of_a_lost_wal_page_claims_nothing_durable(interpreter):
    """Weak persistence commits the log a page at a time.  The first
    WAL page ever written dies through every re-drive: the blocking
    writer that sealed it takes the error, the polled one does not wait
    for it -- and neither may mark its records durable."""
    injector = FailOneWrite(lambda command: command.lba == 1)  # WAL page 0
    _engine, simos, device, driver, _tree = make_machine(
        preload=0, faults=injector
    )
    sizing = WriteAheadLog(device.profile.page_size, base_lba=1, num_pages=2)
    count = 0
    while not sizing.take_flushable(False)[0]:
        count += 1
        sizing.append(b"P" + count.to_bytes(8, "little") + payload(count))
    ops = [insert_op(k, payload(k)) for k in range(1, count + 1)]
    if interpreter == "blocking":
        store = LsmStore(
            device, DedicatedIoService(driver), LsmConfig(), persistence="weak"
        )
        BaselineRunner(simos, store, ops, n_threads=1).run_to_completion()
        failed = [count - 1]  # the put that sealed the page
    else:
        store = LeveledStore(device, LsmConfig(), persistence="weak")
        worker = PolledLsmWorker(
            simos, driver, store, NaiveScheduling(), ClosedLoopSource([], window=1)
        )
        worker.run_operations(ops, window=1)
        assert worker.lost_writes.value == 1
        failed = []
    assert injector.failed is not None
    assert [i for i, op in enumerate(ops) if op.error is not None] == failed
    assert store.wal.pending_records() == count


@pytest.mark.parametrize("interpreter", ["blocking", "polled"])
def test_lsm_flush_that_fails_leaves_its_memtable_to_the_next_one(interpreter):
    """The first SSTable page ever written dies through every re-drive,
    so the first memtable flush fails: inline in the fourth put on a
    blocking thread, as an operation of its own when polled.  The
    rotated memtable stays readable, and the next rotation's flush
    drains it with its own (an aborted flush used to keep its guard
    set, so no later memtable was ever flushed)."""
    wal_pages = 64
    injector = FailOneWrite(lambda command: command.lba > wal_pages)
    _engine, simos, device, driver, _tree = make_machine(preload=0, faults=injector)
    shape = dict(memtable_entries=4, wal_pages=wal_pages)
    keys = list(range(1, 13))
    first = [insert_op(k, payload(k)) for k in keys[:4]]
    then = [insert_op(k, payload(k)) for k in keys[4:]] + [search_op(k) for k in keys]
    if interpreter == "blocking":
        store = LsmStore(device, DedicatedIoService(driver), LsmConfig(**shape))
        for ops in (first, then):
            BaselineRunner(simos, store, ops, n_threads=1).run_to_completion()
        failed = [3]
    else:
        store = LeveledStore(device, LsmConfig(**shape))
        worker = PolledLsmWorker(
            simos, driver, store, NaiveScheduling(), ClosedLoopSource([], window=1)
        )
        for ops in (first, then):
            worker.run_operations(ops, window=1)
        assert worker.lost_writes.value == 1
        failed = []
    assert store.flushes == 4  # the failed one, then 2 + 1
    assert not store.immutables
    ops = first + then
    assert [i for i, op in enumerate(ops) if op.error is not None] == failed
    assert [op.result for op in ops[len(keys):]] == [payload(k) for k in keys]


@pytest.mark.parametrize("interpreter", ["blocking", "polled"])
def test_lsm_flush_compacts_any_level_over_its_budget(interpreter):
    """LevelDB's trigger: a flush asks for a compaction when any level
    is over its budget, not only level 0.  A bulk load leaves level 1
    at 4 tables over a 2-table budget; the first flush leaves level 0
    at one table of its 4 and still drains level 1 into level 2."""
    _engine, simos, device, driver, _tree = make_machine(preload=0)
    config = LsmConfig(memtable_entries=4, level1_tables=2, wal_pages=64)
    loaded = [(k * 10, payload(k * 10)) for k in range(1, 17)]
    ops = [insert_op(k, payload(k)) for k in (5, 15, 25, 35)]  # one rotation
    ops += [search_op(key) for key, _value in loaded]
    if interpreter == "blocking":
        store = LsmStore(device, DedicatedIoService(driver), config)
        store.bulk_load(loaded)
        BaselineRunner(simos, store, ops, n_threads=1).run_to_completion()
    else:
        store = LeveledStore(device, config)
        store.bulk_load(loaded)
        worker = PolledLsmWorker(
            simos, driver, store, NaiveScheduling(), ClosedLoopSource([], window=1)
        )
        worker.run_operations(ops, window=1)
    assert (store.flushes, store.compactions) == (1, 2)
    assert [len(level) for level in store.levels] == [1, 2, 2]
    assert [op.result for op in ops[4:]] == [value for _key, value in loaded]


def test_blocking_lsm_range_never_reads_a_reused_page():
    """A range snapshots 40 one-page tables and reads them newest-key
    first.  Meanwhile a second thread's inserts into the lowest table's
    key range flush and compact it away (``level0_limit=0``: every
    flush compacts).  Were its page freed at once, the next flush would
    reuse it before the range reaches it, and the range would read the
    new table's keys in place of the loaded ones.  The store keeps
    retired pages allocated until the reads that took their references
    before the retirement have finished, as the polled worker does."""
    _engine, simos, device, driver, _tree = make_machine(preload=0)
    config = LsmConfig(
        memtable_entries=4, level0_limit=0, level1_tables=64, wal_pages=64
    )
    store = LsmStore(device, DedicatedIoService(driver), config)
    loaded = [(k * 10, payload(k * 10)) for k in range(1, 161)]
    store.bulk_load(loaded)
    scan = range_op(1, 10_000)
    ops = [scan] + [insert_op(k, payload(k)) for k in range(11, 19)]
    BaselineRunner(simos, store, ops, n_threads=2).run_to_completion()
    assert store.compactions >= 2
    rows = dict(scan.result)
    assert all(rows.get(key) == value for key, value in loaded)
    assert not store._quarantine  # the range's end freed what it held up


@pytest.mark.parametrize("accessor_kind", ["sync", "lcb"])
@pytest.mark.parametrize("n_threads", [1, 8])
def test_batches_run_under_the_blocking_interpreter(accessor_kind, n_threads):
    """The batch plan has both interpreters: mixed batches over 4-entry
    leaves (n-way splits, merges, root growth) on blocking threads.
    Chunks own disjoint keys, so the dict holds at any interleaving."""
    size = 112
    _engine, simos, _device, driver, tree = make_machine(
        seed=5, preload=0, payload_size=size
    )
    io_service = DedicatedIoService(driver)
    latches = BlockingLatchTable()
    if accessor_kind == "sync":
        accessor = SyncTreeAccessor(tree, io_service, latches)
    else:
        accessor = LcbTreeAccessor(tree, io_service, latches, wal_pages=4_096)

    rng = random.Random(7)
    model = {}
    ops = []
    expected = []
    for chunk in range(24):
        keys = [chunk + 24 * rng.randrange(40) for _ in range(32)]
        specs = []
        want = []
        for key in keys:
            roll = rng.random()
            if roll < 0.5:
                specs.append(OpSpec.put(key, payload(key) * (size // 8)))
                want.append(key not in model)
                model[key] = payload(key) * (size // 8)
            elif roll < 0.7:
                specs.append(OpSpec.get(key))
                want.append(model.get(key))
            else:
                specs.append(OpSpec.delete(key))
                want.append(model.pop(key, None) is not None)
        ops.append(batch_op(specs))
        expected.append(want)
    runner = BaselineRunner(simos, accessor, ops, n_threads=n_threads, name="b")
    runner.run_to_completion()
    latches.assert_quiescent()

    assert [op.result for op in ops] == expected
    if accessor_kind == "lcb":
        accessor.materialize_delta()
    assert dict(tree.iterate_items_raw()) == model
    assert tree.validate()["levels"] >= 3


def test_blink_reads_need_no_latches():
    preload = 2_000
    engine, simos, device, driver, tree = make_machine(seed=9, preload=preload)
    latches = BlockingLatchTable()
    accessor = BlinkTreeAccessor(tree, DedicatedIoService(driver), latches)
    ops = [search_op(k * 10) for k in range(1, 500)]
    runner = BaselineRunner(simos, accessor, ops, n_threads=8, name="blink")
    runner.run_to_completion()
    assert latches.grants == 0  # pure reads never latched
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
