"""The seven workloads: how each system under test is built and driven.

Every builder turns ``(seed, n_ops)`` into a :class:`Rig` — a fully
set-up system plus the operation stream it will be handed — using only
public entry points: the ``repro.api`` sessions, ``PaTreeEngine.
reset_source`` / ``run_to_completion`` for the open loop, and for the
synchronous paradigm the constructors ``repro.bench.runner`` itself
uses.  Why each workload exists is recorded in ``BENCHMARK.json`` and
README.md; the sizes frozen in :data:`WORKLOADS` are what the numbers
in ``baseline.json`` were measured at.
"""

from collections import namedtuple

from repro.api import AsyncLsmSession, PATreeSession, ShardedSession
from repro.backend import make_backend
from repro.baselines.io_service import SharedIoService
from repro.baselines.latching import BlockingLatchTable
from repro.baselines.runner import BaselineRunner
from repro.baselines.sync_tree import SyncTreeAccessor
from repro.core.ops import BATCH, SYNC, OpSpec, batch_op, sync_op
from repro.core.tree import PaTree
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.simos.scheduler import SimOS, paper_testbed_profile
from repro.workloads import YcsbWorkload, payload_for

from benchmarks.perf.sources import DueTimeSource

#: Preloaded keys of every YCSB-shaped workload (8 B key, 8 B payload).
YCSB_KEYS = 20_000
ZIPF_ALPHA = 0.3

#: batch256_mixed: candidate keys, preload stride, specs per batch op.
BATCH_KEYSPACE = 8_192
BATCH_PRELOAD_STRIDE = 8
BATCH_SIZE = 256

#: openloop_40k: offered virtual rate, about half the closed-loop capacity.
OPEN_LOOP_RATE = 40_000

#: ycsb_buffered: a sync after this many updates.
SYNC_EVERY = 64

#: lsm_update_heavy: small enough that the scaled-down stream still
#: sees several flush and compaction cycles inside the timed phase.
LSM_MEMTABLE_ENTRIES = 500

MAX_KEY = (1 << 63) - 1


def op_weight(op):
    """User-visible operations in ``op``: one per key, so a batch counts its specs."""
    return len(op.specs) if op.kind == BATCH else 1


class Rig:
    """One built system under test and the operations it will run.

    The collectors read the public objects listed here and nothing
    else: ``sim`` (event kernel), ``simos``, ``backends`` (one per
    device), ``workers`` (PA-Tree working threads, none for the
    synchronous paradigm), ``lsm_workers``, ``qpairs`` and ``buffers``.
    """

    #: which output check applies: "ycsb" (get/update/insert/scan over
    #: a preloaded population) or "batch" (put/get/delete spec vectors)
    kind = "ycsb"
    #: the DueTimeSource of an open-loop rig, else None
    open_source = None

    def __init__(self, sim, simos, backends, workers, qpairs, buffers,
                 operations, preload, lsm_workers=()):
        self.sim = sim
        self.simos = simos
        self.backends = backends
        self.workers = list(workers)
        self.lsm_workers = list(lsm_workers)
        self.qpairs = qpairs
        self.buffers = [buffer for buffer in buffers if buffer is not None]
        self.operations = operations
        self.preload = preload

    def user_operations(self):
        """The operations a user issued (syncs are housekeeping)."""
        return [op for op in self.operations if op.kind != SYNC]

    def user_op_count(self):
        return sum(op_weight(op) for op in self.user_operations())

    def run(self):
        """The timed phase: first op admitted to last op done."""
        raise NotImplementedError

    def finish(self):
        """After the timed phase: make buffered updates reach the media."""

    def validate(self):
        """Raise if an on-media structural invariant is violated."""

    def media_items(self):
        """Every (key, payload) pair stored once :meth:`finish` ran."""
        raise NotImplementedError

    def close(self):
        """Release the backend if :meth:`finish` did not already."""


class _TreeSessionRig(Rig):
    def __init__(self, session, operations, preload):
        worker = session.pa_engine
        super().__init__(
            session.env.engine, session.env.os, [session.env.backend],
            [worker], [worker.qpair], [worker.buffer], operations, preload,
        )
        self.session = session

    def run(self):
        self.session.execute(self.operations)

    def finish(self):
        self.session.close()  # weak persistence flushes its dirty tail

    def validate(self):
        self.session.validate()

    def media_items(self):
        return self.session.tree.iterate_items_raw()


class _OpenLoopRig(_TreeSessionRig):
    def __init__(self, session, source, preload):
        super().__init__(session, source.operations, preload)
        self.open_source = source

    def run(self):
        worker = self.session.pa_engine
        worker.reset_source(self.open_source)
        worker.run_to_completion()


class _BatchRig(_TreeSessionRig):
    kind = "batch"


class _ShardedRig(Rig):
    def __init__(self, session, operations, preload):
        sharded = session.sharded
        super().__init__(
            session.engine, session.os, sharded.backends, sharded.engines,
            [worker.qpair for worker in sharded.engines],
            [worker.buffer for worker in sharded.engines],
            operations, preload,
        )
        self.session = session

    def run(self):
        self.session.execute(self.operations)

    def finish(self):
        self.session.close()

    def validate(self):
        self.session.validate()

    def media_items(self):
        return self.session.sharded.iterate_items_raw()


class _LsmRig(Rig):
    def __init__(self, session, operations, preload):
        worker = session.worker
        super().__init__(
            session.env.engine, session.env.os, [session.env.backend],
            [], [worker.qpair], [], operations, preload,
            lsm_workers=[worker],
        )
        self.session = session

    def run(self):
        self.session.execute(self.operations)

    def media_items(self):
        # the store has no offline walk; one full scan through the
        # worker returns the merged view of memtables and every level
        return self.session.scan(0, MAX_KEY)

    def close(self):
        self.session.close()


class _SyncBaselineRig(Rig):
    def __init__(self, sim, simos, backend, tree, io_service, runner,
                 operations, preload):
        super().__init__(
            sim, simos, [backend], [], [io_service.qpair], [],
            operations, preload,
        )
        self.backend = backend
        self.tree = tree
        self.runner = runner

    def run(self):
        self.runner.run_to_completion()

    def validate(self):
        self.tree.validate()

    def media_items(self):
        return self.tree.iterate_items_raw()

    def close(self):
        self.backend.close()


# ----------------------------------------------------------------------
# operation streams
# ----------------------------------------------------------------------


def _ycsb(seed, n_ops, mix="default", **kwargs):
    return YcsbWorkload(
        YCSB_KEYS, n_ops, mix=mix, alpha=ZIPF_ALPHA,
        rng=RngRegistry(seed).stream("workload"), **kwargs
    )


def _with_syncs(operations, every):
    """The stream with a sync() after every ``every`` updates."""
    out = []
    since = 0
    for op in operations:
        out.append(op)
        if op.is_update:
            since += 1
            if since >= every:
                since = 0
                out.append(sync_op())
    return out


def _batch_specs(seed, n_specs):
    """50 % put / 30 % get / 20 % delete over the batch keyspace."""
    rng = RngRegistry(seed).stream("batch-mix")
    specs = []
    for _ in range(n_specs):
        key = rng.randrange(1, BATCH_KEYSPACE)
        roll = rng.random()
        if roll < 0.5:
            specs.append(OpSpec.put(key, payload_for(key)))
        elif roll < 0.8:
            specs.append(OpSpec.get(key))
        else:
            specs.append(OpSpec.delete(key))
    return specs


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------


def _loaded_tree_session(seed, items, **config):
    session = PATreeSession(seed=seed, **config)
    session.bulk_load(items)
    return session


def build_ycsb_unbuffered(seed, n_ops):
    workload = _ycsb(seed, n_ops)
    items = workload.preload_items()
    session = _loaded_tree_session(
        seed, items, scheduler="workload_aware", persistence="strong",
        buffer_pages=0, window=64,
    )
    return _TreeSessionRig(session, list(workload.operations()), dict(items))


def build_ycsb_buffered(seed, n_ops):
    workload = _ycsb(seed, n_ops)
    items = workload.preload_items()
    session = _loaded_tree_session(
        seed, items, scheduler="workload_aware", persistence="weak",
        buffer_pages=4096, window=64,
    )
    operations = _with_syncs(workload.operations(), SYNC_EVERY)
    return _TreeSessionRig(session, operations, dict(items))


def build_batch256_mixed(seed, n_ops):
    items = [
        (key, payload_for(key))
        for key in range(1, BATCH_KEYSPACE, BATCH_PRELOAD_STRIDE)
    ]
    session = _loaded_tree_session(
        seed, items, scheduler="naive", persistence="strong",
        buffer_pages=0, window=8,
    )
    specs = _batch_specs(seed, n_ops)
    operations = [
        batch_op(specs[start:start + BATCH_SIZE])
        for start in range(0, len(specs), BATCH_SIZE)
    ]
    return _BatchRig(session, operations, dict(items))


def build_openloop_40k(seed, n_ops):
    workload = _ycsb(seed, n_ops)
    items = workload.preload_items()
    session = _loaded_tree_session(
        seed, items, scheduler="workload_aware", persistence="strong",
        buffer_pages=0, window=64,
    )
    source = DueTimeSource(
        workload.operations(), OPEN_LOOP_RATE,
        RngRegistry(seed).stream("arrival"),
    )
    return _OpenLoopRig(session, source, dict(items))


def build_sync_shared_32t(seed, n_ops):
    workload = _ycsb(seed, n_ops)
    items = workload.preload_items()
    sim = Engine(seed=seed)
    simos = SimOS(sim, paper_testbed_profile())
    backend = make_backend("sim", engine=sim)
    tree = PaTree.create(backend.device, payload_size=8)
    tree.bulk_load(items)
    io_service = SharedIoService(backend.driver)
    accessor = SyncTreeAccessor(tree, io_service, BlockingLatchTable())
    operations = list(workload.operations())
    runner = BaselineRunner(simos, accessor, operations, 32, name="shared")
    return _SyncBaselineRig(
        sim, simos, backend, tree, io_service, runner, operations, dict(items)
    )


def build_shards4_ycsb(seed, n_ops):
    workload = _ycsb(seed, n_ops)
    items = workload.preload_items()
    session = ShardedSession(seed=seed, shards=4, window=128)
    session.bulk_load(items)
    return _ShardedRig(session, list(workload.operations()), dict(items))


def build_lsm_update_heavy(seed, n_ops):
    workload = _ycsb(
        seed, n_ops, mix="update_heavy", insert_ratio=0.5, range_ratio=0.1
    )
    items = workload.preload_items()
    session = AsyncLsmSession(
        seed=seed, memtable_entries=LSM_MEMTABLE_ENTRIES
    )
    session.bulk_load(items)
    return _LsmRig(session, list(workload.operations()), dict(items))


#: a builder plus its frozen full size and its smoke size
Workload = namedtuple("Workload", "build ops smoke_ops")


#: Sizes are user operations per timed phase (specs for the batch
#: workload), tuned once so a timed phase takes about two host seconds
#: on the 2-core sandbox, then frozen.  ``--smoke`` sizes keep the
#: self-test under a minute.
WORKLOADS = {
    "ycsb_unbuffered": Workload(build_ycsb_unbuffered, 4_800, 300),
    "ycsb_buffered": Workload(build_ycsb_buffered, 21_000, 300),
    "batch256_mixed": Workload(build_batch256_mixed, 4_096, 512),
    "openloop_40k": Workload(build_openloop_40k, 2_800, 300),
    "sync_shared_32t": Workload(build_sync_shared_32t, 4_000, 300),
    "shards4_ycsb": Workload(build_shards4_ycsb, 6_500, 300),
    "lsm_update_heavy": Workload(build_lsm_update_heavy, 10_500, 300),
}
