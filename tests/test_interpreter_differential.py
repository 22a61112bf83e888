"""Each plan set under both of its interpreters, one operation at a time.

The tree plans (``repro.core.plans`` / ``repro.core.batch``) run under
``PaTreeEngine`` (polled) and ``SyncTreeAccessor`` (blocking); the LSM
plans (``LeveledStore``) under ``PolledLsmWorker`` and ``LsmStore``.
Run sequentially -- each operation alone, the worker left to go idle
(its internal flushes and compactions included) before the next one is
issued -- no schedule can differ between the two, so neither may any
result, any page on the device or the allocator's state.

A tree level is one ``CoupleEff``; each interpreter must serve it
exactly as its four effects (latch, parent release, read, search).
The last test runs the tree plans concurrently both ways, as written
and through an adapter that spells every step as those four effects,
and holds the whole run equal.
"""

import random

import pytest

from repro.baselines.io_service import DedicatedIoService
from repro.baselines.latching import BlockingLatchTable
from repro.baselines.lsm import LeveledStore, LsmConfig, LsmStore
from repro.baselines.runner import BaselineRunner
from repro.baselines.sync_tree import SyncTreeAccessor
from repro.buffer import ReadOnlyBuffer, ReadWriteBuffer
from repro.core.costs import TreeCostModel
from repro.core.engine import PaTreeEngine
from repro.core.ops import (
    ChargeEff,
    CoupleEff,
    LatchEff,
    OpSpec,
    ReadEff,
    UnlatchEff,
    batch_op,
    delete_op,
    insert_op,
    range_op,
    search_op,
    sync_op,
    update_op,
)
from repro.core.plans import make_plan
from repro.core.source import ClosedLoopSource
from repro.core.tree import PaTree
from repro.faults import FaultConfig
from repro.nvme.device import NvmeDevice, fast_test_profile
from repro.nvme.driver import NvmeDriver
from repro.palsm import PolledLsmWorker
from repro.sched.naive import NaiveScheduling
from repro.sim.engine import Engine
from repro.sim.metrics import CPU_REAL_WORK
from repro.simos.scheduler import OsProfile, SimOS

TREE_PAYLOAD = 200  # two entries to a leaf: splits and merges every few ops


def value(key, turn, size=8):
    return ((key * 31 + turn) % 251).to_bytes(1, "little") * size


def machine(faults=None):
    engine = Engine(seed=3)
    simos = SimOS(engine, OsProfile(cores=4))
    device = NvmeDevice(engine, fast_test_profile(), faults=faults)
    return simos, device, NvmeDriver(device)


def tree_script(seed, n):
    """Single ops over a small key space, with batches among them."""
    rng = random.Random(seed)

    def key():
        return rng.randrange(1, 120)

    ops = []
    for turn in range(n):
        roll = rng.random()
        if roll < 0.3:
            ops.append(insert_op(key(), value(key(), turn, TREE_PAYLOAD)))
        elif roll < 0.4:
            ops.append(update_op(key(), value(key(), turn, TREE_PAYLOAD)))
        elif roll < 0.6:
            ops.append(delete_op(key()))
        elif roll < 0.75:
            ops.append(search_op(key()))
        elif roll < 0.85:
            low = key()
            ops.append(range_op(low, low + rng.randrange(1, 30)))
        else:
            specs = []
            for _ in range(rng.randrange(1, 9)):
                verb = rng.random()
                if verb < 0.5:
                    specs.append(OpSpec.put(key(), value(key(), turn, TREE_PAYLOAD)))
                elif verb < 0.8:
                    specs.append(OpSpec.delete(key()))
                else:
                    specs.append(OpSpec.get(key()))
            ops.append(batch_op(specs))
    return ops


def tree_state(tree, device, ops):
    allocator = tree.allocator
    return (
        [(op.kind, op.result, op.error) for op in ops],
        dict(device.substrate.pages),
        (tree.meta.root_page, tree.meta.height),
        (allocator.next_page, list(allocator._free)),
    )


def run_tree(interpreter, persistence, ops):
    simos, device, driver = machine()
    tree = PaTree.create(device, payload_size=TREE_PAYLOAD)
    tree.bulk_load(
        [(key, value(key, 0, TREE_PAYLOAD)) for key in range(2, 120, 3)]
    )
    if persistence == "weak":
        buffer = ReadWriteBuffer(6)
        ops = ops + [sync_op()]
    else:
        buffer = ReadOnlyBuffer(6)
    if interpreter == "polled":
        worker = PaTreeEngine(
            simos, driver, tree, NaiveScheduling(), ClosedLoopSource([], window=1),
            buffer=buffer,
        )
        for op in ops:
            worker.run_operations([op], window=1)
    else:
        accessor = SyncTreeAccessor(
            tree, DedicatedIoService(driver), BlockingLatchTable(), buffer
        )
        for op in ops:
            BaselineRunner(simos, accessor, [op], n_threads=1).run_to_completion()
    return tree_state(tree, device, ops)


@pytest.mark.parametrize("persistence", ["strong", "weak"])
@pytest.mark.parametrize("seed", [1, 2])
def test_tree_plans_give_the_same_pages_under_both_interpreters(persistence, seed):
    polled = run_tree("polled", persistence, tree_script(seed, 160))
    blocking = run_tree("blocking", persistence, tree_script(seed, 160))
    assert polled[0] == blocking[0]
    assert polled[1] == blocking[1]
    assert polled[2:] == blocking[2:]
    # the script did reshape the tree
    assert any(op[0] == "batch" for op in polled[0])
    assert polled[2][1] >= 2


# Level 1's budget holds everything the script writes, so a compaction
# merges level 0 into level 1 once and ends.  One that went on to a
# second level would allocate its output after its first retirement:
# the blocking store frees retired pages at once (no read is in
# flight), the polled worker quarantines them until the compaction is
# done, so that output would land on other LBAs -- the same tables,
# elsewhere on the device.
LSM_SHAPE = dict(
    memtable_entries=4, level0_limit=2, level1_tables=64, wal_pages=64,
    block_cache_pages=16,
)


def lsm_script(seed, n):
    rng = random.Random(seed)

    def key():
        return rng.randrange(1, 90)

    ops = []
    for turn in range(n):
        roll = rng.random()
        if roll < 0.45:
            ops.append(insert_op(key(), value(key(), turn)))
        elif roll < 0.55:
            ops.append(delete_op(key()))
        elif roll < 0.8:
            ops.append(search_op(key()))
        elif roll < 0.95:
            low = key()
            ops.append(range_op(low, low + rng.randrange(1, 25)))
        else:
            ops.append(sync_op())
    return ops


def run_lsm(interpreter, persistence, ops):
    simos, device, driver = machine()
    config = LsmConfig(**LSM_SHAPE)
    if interpreter == "polled":
        store = LeveledStore(device, config, persistence)
    else:
        store = LsmStore(device, DedicatedIoService(driver), config, persistence)
    store.bulk_load([(key, value(key, 0)) for key in range(3, 90, 4)])
    ops = ops + [sync_op()]
    if interpreter == "polled":
        worker = PolledLsmWorker(
            simos, driver, store, NaiveScheduling(), ClosedLoopSource([], window=1)
        )
        for op in ops:
            worker.run_operations([op], window=1)
        # one op at a time: nothing in flight holds a retired page
        assert not worker._pending_frees
    else:
        for op in ops:
            BaselineRunner(simos, store, [op], n_threads=1).run_to_completion()
    allocator = store.allocator
    return (
        [(op.kind, op.result, op.error) for op in ops],
        dict(device.substrate.pages),
        [[table.page_lbas for table in level] for level in store.levels],
        (store.flushes, store.compactions, len(store.memtable), store.immutables),
        (store.wal.next_lsn, store.wal.durable_lsn),
        (allocator.next_page, list(allocator._free)),
    )


@pytest.mark.parametrize("persistence", ["strong", "weak"])
@pytest.mark.parametrize("seed", [1, 2])
def test_lsm_plans_give_the_same_pages_under_both_interpreters(persistence, seed):
    polled = run_lsm("polled", persistence, lsm_script(seed, 200))
    blocking = run_lsm("blocking", persistence, lsm_script(seed, 200))
    assert polled[0] == blocking[0]
    assert polled[1] == blocking[1]
    assert polled[2:] == blocking[2:]
    flushes, compactions, _entries, _immutables = polled[3]
    assert flushes >= 10 and compactions >= 3


# ----------------------------------------------------------------------
# CoupleEff against its four-effect spelling
# ----------------------------------------------------------------------


def four_effects(plan, tree):
    """``plan`` with every ``CoupleEff`` spelled as its four effects."""
    search_ns = tree.costs.node_search_ns
    send = None
    try:
        while True:
            try:
                effect = plan.send(send)
            except StopIteration:
                return
            if type(effect) is CoupleEff:
                yield LatchEff(effect.page_id, effect.mode)
                if effect.parent is not None:
                    yield UnlatchEff(effect.parent)
                send = yield ReadEff(effect.page_id)
                yield ChargeEff(search_ns, CPU_REAL_WORK)
            else:
                send = yield effect
    finally:
        plan.close()


class StepEngine(PaTreeEngine):
    """Counts the parks the four-effect spelling has no state for."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.step_latch_waits = 0
        self.step_aborts = 0

    def _wait_for_latch(self, op, page_id):
        self.step_latch_waits += op.step is not None
        super()._wait_for_latch(op, page_id)

    def _abort_op(self, op, error):
        self.step_aborts += op.step is not None
        super()._abort_op(op, error)


class ExpandedEngine(PaTreeEngine):
    def _make_plan(self, op):
        return four_effects(make_plan(op, self.tree), self.tree)


class ExpandedAccessor(SyncTreeAccessor):
    def _make_plan(self, op):
        return four_effects(make_plan(op, self.tree), self.tree)


def leaf_for(tree, key):
    """The leaf page owning ``key``, read off the media."""
    node = tree.read_node_raw(tree.meta.root_page)
    while not node.is_leaf:
        node = tree.read_node_raw(node.child_for(key))
    return node.page_id


def log_bursts(simos):
    """Every ``SimOS.cpu`` burst from now on, in order: when it was
    asked for, how long, which category."""
    bursts = []
    cpu = simos.cpu
    clock = simos.engine.clock

    def logged(ns, category):
        bursts.append((clock.now, ns, category))
        return cpu(ns, category)

    simos.cpu = logged
    return bursts


def run_steps(interpreter, persistence, expanded, seed):
    """The tree script, eight at a time, as one concurrent run.

    Strong runs unbuffered with the leaf of key 60 poisoned, so reads
    of it fail and abort their operations.  The search costs more than
    the parse here, so the burst log tells the two apart."""
    simos, device, driver = machine(FaultConfig())
    bursts = log_bursts(simos)
    tree = PaTree.create(device, payload_size=TREE_PAYLOAD)
    tree.costs = TreeCostModel()
    tree.costs.node_search_ns += 200
    tree.bulk_load(
        [(key, value(key, 0, TREE_PAYLOAD)) for key in range(2, 120, 3)]
    )
    ops = tree_script(seed, 160)
    if persistence == "weak":
        buffer = ReadWriteBuffer(6)
        ops = ops + [sync_op()]
    else:
        buffer = None
        device.fault_injector.poison(leaf_for(tree, 60))
    if interpreter == "polled":
        cls = ExpandedEngine if expanded else StepEngine
        worker = cls(
            simos, driver, tree, NaiveScheduling(), ClosedLoopSource([], window=8),
            buffer=buffer,
        )
        worker.run_operations(ops, window=8)
        latches = worker.latches
    else:
        latches = BlockingLatchTable()
        cls = ExpandedAccessor if expanded else SyncTreeAccessor
        accessor = cls(tree, DedicatedIoService(driver), latches, buffer)
        BaselineRunner(simos, accessor, ops, n_threads=8).run_to_completion()
        worker = None
    run = {
        "ops": [
            (op.kind, op.result, None if op.error is None else str(op.error),
             op.admit_ns, op.done_ns)
            for op in ops
        ],
        "clock": simos.engine.now,
        "bursts": bursts,
        "cpu": simos.cpu_account().by_category,
        "latches": (latches.grants, latches.waits),
        "device": (
            device.reads_completed.value,
            device.writes_completed.value,
            device.errors_completed.value,
            device.probe_calls.value,
        ),
        "tree": tree_state(tree, device, [])[1:],
    }
    return run, worker


@pytest.mark.parametrize("interpreter", ["polled", "blocking"])
@pytest.mark.parametrize("persistence", ["weak", "strong"])
def test_a_step_is_served_exactly_as_its_four_effects(interpreter, persistence):
    steps, worker = run_steps(interpreter, persistence, False, 1)
    expanded, _ = run_steps(interpreter, persistence, True, 1)
    for part in steps:
        assert steps[part] == expanded[part], part
    # the run had latch conflicts, and strong had aborted reads
    assert steps["latches"][1] > 0
    errors = [op for op in steps["ops"] if op[2] is not None]
    assert bool(errors) == (persistence == "strong")
    assert {op[0] for op in steps["ops"]} >= {
        "search", "range", "insert", "update", "delete", "batch",
    }
    if worker is not None:
        # the polled interpreter resumed a step after a latch wait, and
        # aborted one whose read failed
        assert worker.step_latch_waits > 0
        assert (worker.step_aborts > 0) == (persistence == "strong")
