"""Submission-ring pressure: QueueFullError at the driver and engine.

The driver surfaces a full SQ ring as a typed
:class:`~repro.errors.QueueFullError` (and its retry path backs off and
resubmits instead of dropping the command); the engine-level working
threads bound their own submissions and defer flushes / escalations so
a full ring never escapes a run.
"""

import pytest

from repro.baselines.lsm import LeveledStore, LsmConfig
from repro.core.engine import PaTreeEngine
from repro.core.ops import insert_op, search_op, sync_op, update_op
from repro.core.source import ClosedLoopSource
from repro.core.tree import PaTree
from repro.errors import DeviceError, QueueFullError
from repro.faults import FaultConfig
from repro.nvme.device import NvmeDevice, fast_test_profile
from repro.nvme.driver import NvmeDriver, RetryPolicy
from repro.palsm import PolledLsmWorker
from repro.sched.naive import NaiveScheduling
from repro.sim.engine import Engine
from repro.simos.scheduler import OsProfile, SimOS


def payload(key):
    return (key & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")


class TestDriverQueuePressure:
    def test_sq_ring_overflow_raises_typed_error(self):
        engine = Engine(seed=1)
        device = NvmeDevice(engine, fast_test_profile(channels=2))
        driver = NvmeDriver(device)
        qpair = driver.alloc_qpair(sq_size=4)
        # 2 commands go straight into channels, 4 fill the ring
        for lba in range(1, 7):
            driver.read(qpair, lba)
        with pytest.raises(QueueFullError) as excinfo:
            driver.read(qpair, 99)
        assert isinstance(excinfo.value, DeviceError)

    def test_submit_failure_leaves_no_partial_state(self):
        engine = Engine(seed=1)
        device = NvmeDevice(engine, fast_test_profile(channels=2))
        driver = NvmeDriver(device)
        qpair = driver.alloc_qpair(sq_size=4)
        for lba in range(1, 7):
            driver.read(qpair, lba)
        outstanding_before = qpair.outstanding
        with pytest.raises(QueueFullError):
            driver.read(qpair, 99)
        assert qpair.outstanding == outstanding_before
        # the rejected submission must not wedge the queue pair: the
        # accepted commands all complete once the device drains
        engine.run()
        completed = driver.probe(qpair)
        assert len(completed) == 6
        assert all(c.ok for c in completed)

    def test_retry_resubmit_survives_a_full_ring(self):
        """A retry that collides with a full SQ backs off, not drops."""
        engine = Engine(seed=1)
        device = NvmeDevice(
            engine,
            fast_test_profile(channels=1),
            faults=FaultConfig(read_error_rate=1.0),
        )
        driver = NvmeDriver(device, retry=RetryPolicy(max_retries=1))
        qpair = driver.alloc_qpair(sq_size=2)
        victim = driver.read(qpair, 1)
        delivered = []
        for _ in range(200):
            engine.run()
            delivered.extend(driver.probe(qpair))
            if engine.events.peek_time() is None:
                break
            # keep the ring saturated so the scheduled resubmit finds
            # it full at least once
            while qpair.sq.free_slots and qpair.outstanding < 3:
                driver.read(qpair, 2)
        victims = [c for c in delivered if c.command is victim]
        assert len(victims) == 1
        assert victim.retries == 1  # the retry happened despite pressure


class TestEngineQueuePressure:
    def _build(self, sq_size, faults=None, preload=300):
        engine = Engine(seed=1)
        simos = SimOS(engine, OsProfile(cores=8))
        device = NvmeDevice(engine, fast_test_profile(), faults=faults)
        driver = NvmeDriver(device)
        qpair = driver.alloc_qpair(sq_size=sq_size, cq_size=4096)
        tree = PaTree.create(device)
        tree.bulk_load(
            [(k * 10, payload(k * 10)) for k in range(1, preload + 1)]
        )
        pa = PaTreeEngine(
            simos,
            driver,
            tree,
            NaiveScheduling(),
            source=ClosedLoopSource([], window=16),
            qpair=qpair,
        )
        return pa

    def _run(self, pa, operations, window=16):
        pa.source = ClosedLoopSource(operations, window=window)
        pa._shutdown = False
        pa.run_to_completion()
        return operations

    def test_engine_completes_through_a_tiny_ring(self):
        """The working thread never overruns a small submission ring."""
        pa = self._build(sq_size=128)
        ops = [search_op(k * 10) for k in range(1, 200)]
        ops += [update_op(k * 10, payload(k)) for k in range(1, 100)]
        self._run(pa, ops)
        assert all(op.error is None for op in ops)
        assert pa.failed_ops.value == 0
        pa.tree.validate()

    def test_deferred_escalations_drain_through_a_tiny_ring(self):
        """Failed-write escalations queue up and re-drive later instead
        of raising QueueFullError from completion-callback context."""
        pa = self._build(
            sq_size=128, faults=FaultConfig(write_error_rate=0.4)
        )
        ops = [update_op(k * 10, payload(k + 1)) for k in range(1, 150)]
        self._run(pa, ops)
        assert all(op.error is None for op in ops)
        assert pa.lost_writes.value == 0
        assert not pa._deferred_escalations
        pa.tree.validate()

    def test_sync_flush_burst_respects_the_ring(self):
        """A large sync() defers its page writes while the ring is hot."""
        from repro.buffer import ReadWriteBuffer

        engine = Engine(seed=1)
        simos = SimOS(engine, OsProfile(cores=8))
        device = NvmeDevice(engine, fast_test_profile())
        driver = NvmeDriver(device)
        qpair = driver.alloc_qpair(sq_size=256, cq_size=4096)
        tree = PaTree.create(device)
        tree.bulk_load([(k * 10, payload(k * 10)) for k in range(1, 2_001)])
        pa = PaTreeEngine(
            simos,
            driver,
            tree,
            NaiveScheduling(),
            source=ClosedLoopSource([], window=16),
            buffer=ReadWriteBuffer(4_096),
            qpair=qpair,
        )
        ops = [update_op(k * 10, payload(k + 7)) for k in range(1, 600)]
        ops.append(sync_op())
        self._run(pa, ops)
        assert all(op.error is None for op in ops)
        assert ops[-1].result > 0  # the dirty pages were flushed
        # in-window updates may re-dirty pages after the sync snapshot;
        # a solo trailing sync drains them (the run_pa shape)
        (tail,) = self._run(pa, [sync_op()], window=1)
        assert tail.error is None
        assert pa.buffer.dirty_count == 0
        pa.tree.validate()


class _IdleWatch(NaiveScheduling):
    """Naive policy that notes the deferred backlog whenever the main
    loop reaches its idle branch (which always asks for the sleep)."""

    def __init__(self):
        super().__init__()
        self.backlog_when_idle = []

    def idle_sleep_ns(self):
        self.backlog_when_idle.append(len(self.engine._deferred_escalations))
        return super().idle_sleep_ns()


class TestLsmQueuePressure:
    def test_deferred_escalations_drain_through_a_tiny_ring(self, monkeypatch):
        """LSM twin of the tree case above.  Every write re-drive issued
        from completion-callback context finds the ring full, so each
        one goes through the deferred deque; the loop must re-drive
        them all and must not idle while any is queued."""
        engine = Engine(seed=1)
        simos = SimOS(engine, OsProfile(cores=4))
        device = NvmeDevice(
            engine, fast_test_profile(),
            faults=FaultConfig(write_error_rate=0.4),
        )
        driver = NvmeDriver(device)
        store = LeveledStore(device, LsmConfig(memtable_entries=100, wal_pages=4_096))
        policy = _IdleWatch()
        worker = PolledLsmWorker(
            simos, driver, store, policy, ClosedLoopSource([], window=16),
            qpair=driver.alloc_qpair(sq_size=128, cq_size=4096),
        )

        backend = worker.driver
        real_probe, real_write = backend.probe, backend.write
        state = {"probing": False, "refused": 0}

        def probe(qpair):
            state["probing"] = True
            try:
                return real_probe(qpair)
            finally:
                state["probing"] = False

        def write(qpair, lba, data, callback=None, context=None):
            if state["probing"]:
                state["refused"] += 1
                raise QueueFullError("sq is full (forced by the test)")
            return real_write(qpair, lba, data, callback=callback, context=context)

        monkeypatch.setattr(backend, "probe", probe)
        monkeypatch.setattr(backend, "write", write)

        ops = [insert_op(k, payload(k)) for k in range(1, 600)]
        worker.run_operations(ops, window=16)
        assert all(op.error is None for op in ops)
        assert state["refused"] > 0
        assert worker.io_escalations.value >= state["refused"]
        assert worker.lost_writes.value == 0
        assert not worker._deferred_escalations
        assert policy.backlog_when_idle  # the idle branch did run
        assert not any(policy.backlog_when_idle)
        assert store.flushes > 0
