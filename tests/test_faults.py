"""Tests for the status-carrying completion path and fault injection.

Covers the stack bottom-up: IoStatus / Completion objects, the
FaultInjector's decision points, driver-transparent retry with
exponential backoff, and the typed-error surface of the session
facades (PA-Tree, PA-LSM, sharded) including the structural oracle
after faulty runs.
"""

import pytest

from test_baselines import FailOneWrite, make_machine

from repro import AsyncLsmSession, PATreeSession, SessionConfig, ShardedSession
from repro.bench.runner import WorkloadSpec, run_pa
from repro.buffer import make_buffer
from repro.core.engine import PaTreeEngine
from repro.core.ops import SYNC, ST_DONE, insert_op, sync_op
from repro.core.source import ClosedLoopSource
from repro.errors import IoError, ReproError, RetryExhaustedError, SimulationError
from repro.faults import FaultConfig, FaultInjector, make_injector
from repro.nvme.command import Completion, IoStatus, NvmeCommand, OP_WRITE
from repro.nvme.device import NvmeDevice, fast_test_profile
from repro.nvme.driver import NvmeDriver, RetryPolicy
from repro.sched.naive import NaiveScheduling
from repro.sim.clock import usec
from repro.sim.engine import Engine
from repro.sim.hooks import subscribe


def payload(key):
    return (key % 2**64).to_bytes(8, "little")


def items(n):
    return [(key, payload(key)) for key in range(1, n + 1)]


def fast(**overrides):
    base = dict(seed=5, scheduler="naive", device_profile=fast_test_profile())
    base.update(overrides)
    return SessionConfig(**base)


def make_device(seed=1, faults=None, retry=None, **profile_overrides):
    engine = Engine(seed=seed)
    device = NvmeDevice(
        engine, fast_test_profile(**profile_overrides), faults=faults
    )
    return engine, device, NvmeDriver(device, retry=retry)


def drain(engine, driver, qpair):
    """Run the sim to quiescence, probing after every event burst."""
    done = []
    for _ in range(10_000):
        engine.run()
        done.extend(driver.probe(qpair))
        if engine.events.peek_time() is None:
            break
    return done


# ----------------------------------------------------------------------
# enum / record plumbing
# ----------------------------------------------------------------------


class TestStatusObjects:
    def test_enum_renders_historical_strings(self):
        assert str(IoStatus.PENDING) == "pending"
        assert str(IoStatus.SUBMITTED) == "submitted"
        assert str(IoStatus.SUCCESS) == "completed"
        assert str(IoStatus.MEDIA_ERROR) == "media_error"
        assert str(IoStatus.UNRECOVERED_READ) == "unrecovered_read"

    def test_command_repr_is_stable_across_the_migration(self):
        command = NvmeCommand("read", 7)
        assert repr(command) == "NvmeCommand(read lba=7 pending)"

    def test_status_predicates(self):
        assert IoStatus.SUCCESS.ok
        assert not IoStatus.MEDIA_ERROR.ok
        assert IoStatus.MEDIA_ERROR.is_failure
        assert IoStatus.MEDIA_ERROR.retriable
        assert IoStatus.UNRECOVERED_READ.is_failure
        assert not IoStatus.UNRECOVERED_READ.retriable
        assert not IoStatus.SUCCESS.is_failure

    def test_completion_passes_command_fields_through(self):
        command = NvmeCommand(OP_WRITE, 42, data=b"x", context="ctx")
        completion = Completion(command, IoStatus.SUCCESS, 1234, attempt=2)
        assert completion.ok
        assert completion.command is command
        assert completion.lba == 42
        assert completion.opcode == OP_WRITE
        assert completion.data == b"x"
        assert completion.context == "ctx"
        assert completion.is_write
        assert completion.attempt == 2
        assert repr(completion) == "Completion(write lba=42 completed attempt=2)"


# ----------------------------------------------------------------------
# config validation / injector construction
# ----------------------------------------------------------------------


class TestFaultConfig:
    def test_rates_validated(self):
        with pytest.raises(SimulationError):
            FaultConfig(read_error_rate=1.5)
        with pytest.raises(SimulationError):
            FaultConfig(spike_factor=0.5)
        with pytest.raises(SimulationError):
            FaultConfig(poison_ranges=((9, 3),))

    def test_injects_anything(self):
        assert not FaultConfig().injects_anything
        assert FaultConfig(read_error_rate=0.1).injects_anything
        assert FaultConfig(poison_lbas=(3,)).injects_anything

    def test_make_injector_normalizes(self):
        engine = Engine(seed=1)
        rng = engine.rng.stream("t")
        assert make_injector(None, rng) is None
        injector = make_injector({"read_error_rate": 0.5}, rng)
        assert isinstance(injector, FaultInjector)
        assert make_injector(injector, rng) is injector
        with pytest.raises(SimulationError):
            make_injector("chaos", rng)


# ----------------------------------------------------------------------
# device + driver level
# ----------------------------------------------------------------------


class TestDeviceFaults:
    def test_zero_rate_config_equals_no_injector(self):
        timelines = []
        for faults in (None, FaultConfig()):
            engine, device, driver = make_device(seed=3, faults=faults)
            qpair = driver.alloc_qpair()
            for lba in range(1, 30):
                driver.write(qpair, lba, bytes(device.profile.page_size))
                driver.read(qpair, lba)
            done = drain(engine, driver, qpair)
            timelines.append([(c.lba, c.opcode, c.visible_ns) for c in done])
            assert all(c.ok for c in done)
        assert timelines[0] == timelines[1]

    def test_nonzero_rate_is_deterministic(self):
        counts = []
        for _ in range(2):
            engine, device, driver = make_device(
                seed=3, faults=FaultConfig(read_error_rate=0.2)
            )
            qpair = driver.alloc_qpair()
            for lba in range(1, 60):
                driver.read(qpair, lba)
            done = drain(engine, driver, qpair)
            counts.append(
                (
                    device.fault_injector.media_errors_injected,
                    driver.retries_scheduled.value,
                    sorted(c.visible_ns for c in done),
                )
            )
        assert counts[0] == counts[1]
        assert counts[0][0] > 0

    def test_transient_errors_absorbed_by_default_retry(self):
        engine, device, driver = make_device(
            seed=3, faults=FaultConfig(read_error_rate=0.25)
        )
        qpair = driver.alloc_qpair()
        for lba in range(1, 40):
            driver.read(qpair, lba)
        done = drain(engine, driver, qpair)
        assert len(done) == 39
        assert all(c.ok for c in done)
        assert device.fault_injector.media_errors_injected > 0
        assert driver.retries_scheduled.value == (
            device.fault_injector.media_errors_injected
        )
        assert driver.failures_delivered.value == 0

    def test_retry_budget_exhaustion_delivers_the_failure(self):
        engine, device, driver = make_device(
            seed=1, faults=FaultConfig(read_error_rate=1.0)
        )
        qpair = driver.alloc_qpair()
        command = driver.read(qpair, 5)
        done = drain(engine, driver, qpair)
        assert len(done) == 1
        completion = done[0]
        assert completion.status is IoStatus.MEDIA_ERROR
        assert completion.command is command
        assert command.retries == 3  # default budget spent
        assert driver.retries_scheduled.value == 3
        assert driver.failures_delivered.value == 1
        # every attempt (1 initial + 3 retries) drew an injection
        assert device.fault_injector.media_errors_injected == 4

    def test_backoff_grows_exponentially_and_caps(self):
        policy = RetryPolicy()
        assert policy.delay_ns(0) == usec(20)
        assert policy.delay_ns(1) == usec(80)
        assert policy.delay_ns(2) == usec(320)
        assert policy.delay_ns(10) == usec(2_000)  # capped

    def test_driver_takes_a_retry_dict_and_rejects_other_types(self):
        _engine, _device, driver = make_device(retry={"max_retries": 1})
        assert isinstance(driver.retry, RetryPolicy)
        assert driver.retry.max_retries == 1
        with pytest.raises(ReproError, match="retry must be"):
            make_device(retry=1)

    def test_zero_budget_policy_delivers_immediately(self):
        engine, device, driver = make_device(
            seed=1,
            faults=FaultConfig(read_error_rate=1.0),
            retry=RetryPolicy(max_retries=0),
        )
        qpair = driver.alloc_qpair()
        driver.read(qpair, 5)
        done = drain(engine, driver, qpair)
        assert len(done) == 1
        assert done[0].status is IoStatus.MEDIA_ERROR
        assert driver.retries_scheduled.value == 0

    def test_retry_backoff_spreads_attempts_in_virtual_time(self):
        engine, device, driver = make_device(
            seed=1, faults=FaultConfig(read_error_rate=1.0)
        )
        retry_times = []
        subscribe(
            driver, "on_retry", lambda completion: retry_times.append(engine.now)
        )
        qpair = driver.alloc_qpair()
        driver.read(qpair, 5)
        drain(engine, driver, qpair)
        assert len(retry_times) == 3
        gaps = [b - a for a, b in zip(retry_times, retry_times[1:])]
        # each gap includes the next (4x larger) backoff, so gaps grow
        assert gaps == sorted(gaps)
        assert gaps[0] > usec(20)

    def test_poisoned_read_fails_until_a_write_cures_it(self):
        engine, device, driver = make_device(
            seed=1, faults=FaultConfig(poison_lbas=(7,))
        )
        qpair = driver.alloc_qpair()
        driver.read(qpair, 7)
        (failed,) = drain(engine, driver, qpair)
        assert failed.status is IoStatus.UNRECOVERED_READ
        # non-retriable: delivered on the first attempt
        assert driver.retries_scheduled.value == 0

        image = b"\x55" * device.profile.page_size
        driver.write(qpair, 7, image)
        (wrote,) = drain(engine, driver, qpair)
        assert wrote.ok
        assert not device.fault_injector.is_poisoned(7)

        got = []
        driver.read(qpair, 7, callback=lambda c: got.append(c.data))
        (reread,) = drain(engine, driver, qpair)
        assert reread.ok and got == [image]
        assert device.fault_injector.poison_cured == 1

    def test_poison_ranges_cover_lbas(self):
        engine, device, driver = make_device(
            seed=1, faults=FaultConfig(poison_ranges=((10, 12),))
        )
        injector = device.fault_injector
        assert injector.is_poisoned(10)
        assert injector.is_poisoned(12)
        assert not injector.is_poisoned(13)

    def test_latency_spikes_inflate_service_time(self):
        baseline = None
        for spike_rate in (0.0, 1.0):
            engine, device, driver = make_device(
                seed=2,
                faults=FaultConfig(spike_rate=spike_rate, spike_factor=10.0),
            )
            qpair = driver.alloc_qpair()
            command = driver.read(qpair, 3)
            drain(engine, driver, qpair)
            if spike_rate == 0.0:
                baseline = command.latency_ns
            else:
                assert command.latency_ns > 5 * baseline
                assert device.fault_injector.spikes_injected == 1

    def test_failed_write_leaves_media_unchanged(self):
        engine, device, driver = make_device(
            seed=1,
            faults=FaultConfig(write_error_rate=1.0),
            retry=RetryPolicy(max_retries=0),
        )
        qpair = driver.alloc_qpair()
        before = device.raw_read(9)
        driver.write(qpair, 9, b"\xaa" * device.profile.page_size)
        (completion,) = drain(engine, driver, qpair)
        assert completion.status is IoStatus.MEDIA_ERROR
        assert device.raw_read(9) == before


# ----------------------------------------------------------------------
# session level (engine / LSM / sharded)
# ----------------------------------------------------------------------


class TestSessionFaults:
    def test_transient_faults_invisible_to_callers(self):
        config = fast(
            faults=FaultConfig(read_error_rate=0.05, write_error_rate=0.05)
        )
        with PATreeSession(config) as session:
            session.bulk_load(items(500))
            for key in range(1, 200):
                assert session.get(key) == payload(key)
            for key in range(1, 50):
                assert session.update(key, b"new-" + payload(key)[:4])
            stats = session.stats()
            assert stats["io_retries"] > 0
            assert stats["io_errors"] == 0
            assert stats["failed_ops"] == 0
            assert stats["faults"]["media_errors_injected"] == stats["io_retries"]
            session.validate()

    def test_accounting_identity_injected_equals_retried_plus_surfaced(self):
        config = fast(
            faults=FaultConfig(read_error_rate=0.3),
            retry={"max_retries": 1},
        )
        with PATreeSession(config) as session:
            session.bulk_load(items(300))
            for key in range(1, 200):
                try:
                    session.get(key)
                except IoError:
                    pass
            stats = session.stats()
            injected = stats["faults"]["media_errors_injected"]
            assert injected > 0
            # every failed completion was either transparently retried
            # or delivered to the engine as a typed error
            assert stats["device_errors"] == injected
            assert injected == stats["io_retries"] + stats["io_errors"]

    def test_run_pa_takes_a_retry_dict(self):
        # the bench harness hands the dict straight to the backend
        spec = WorkloadSpec(kind="ycsb", n_keys=2_000, n_ops=200)
        stats = run_pa(
            spec,
            faults={"read_error_rate": 0.3},
            retry={"max_retries": 1},
            device_profile=fast_test_profile(),
        )
        assert stats["io_retries"] > 0 and stats["io_errors"] > 0
        assert stats["completed"] + stats["failed_ops"] == 200

    def test_exhausted_retries_raise_typed_error_and_session_survives(self):
        config = fast(faults=FaultConfig(read_error_rate=1.0))
        with PATreeSession(config) as session:
            session.bulk_load(items(100))
            with pytest.raises(RetryExhaustedError) as excinfo:
                session.get(5)
            assert isinstance(excinfo.value, IoError)
            assert excinfo.value.status is IoStatus.MEDIA_ERROR
            stats = session.stats()
            assert stats["failed_ops"] == 1
            assert stats["io_errors"] >= 1
            # the tree structure is untouched by aborted reads
            session.validate()
            # and the session keeps accepting work
            with pytest.raises(RetryExhaustedError):
                session.get(6)

    def test_batch_execute_marks_failed_ops_instead_of_raising(self):
        from repro.core.ops import search_op

        config = fast(faults=FaultConfig(read_error_rate=1.0))
        with PATreeSession(config) as session:
            session.bulk_load(items(50))
            ops = session.execute([search_op(1), search_op(2)])
            for op in ops:
                assert isinstance(op.error, IoError)
                assert op.result is None

    def test_poisoned_pages_surface_unrecovered_reads(self):
        profile = fast_test_profile()
        config = fast(
            faults=FaultConfig(
                poison_ranges=((0, profile.capacity_pages - 1),)
            )
        )
        with PATreeSession(config) as session:
            session.bulk_load(items(100))
            with pytest.raises(IoError) as excinfo:
                session.get(5)
            assert not isinstance(excinfo.value, RetryExhaustedError)
            assert excinfo.value.status is IoStatus.UNRECOVERED_READ
            assert session.stats()["faults"]["poison_read_failures"] >= 1
            session.validate()  # the oracle reads media fault-free

    def test_zero_rate_session_matches_unfaulted_session(self):
        results = []
        for faults in (None, FaultConfig()):
            with PATreeSession(fast(faults=faults)) as session:
                session.bulk_load(items(200))
                for key in range(1, 100):
                    session.get(key)
                session.put(1_000_000, b"tail-val")
                stats = session.stats()
                stats.pop("faults", None)
                results.append(stats)
        assert results[0] == results[1]

    def test_lsm_session_surfaces_typed_errors(self):
        config = SessionConfig(
            seed=5,
            device_profile=fast_test_profile(),
            faults=FaultConfig(read_error_rate=1.0),
            retry={"max_retries": 0},
        )
        with AsyncLsmSession(config) as session:
            session.bulk_load(items(200))
            with pytest.raises(IoError):
                session.get(5)
            stats = session.stats()
            assert stats["failed_ops"] == 1
            assert stats["faults"]["media_errors_injected"] >= 1

    def test_lsm_session_recovers_with_retry(self):
        config = SessionConfig(
            seed=5,
            device_profile=fast_test_profile(),
            faults=FaultConfig(read_error_rate=0.1, write_error_rate=0.1),
        )
        with AsyncLsmSession(config) as session:
            session.bulk_load(items(200))
            for key in range(1, 80):
                assert session.get(key) == payload(key)
            stats = session.stats()
            assert stats["io_retries"] > 0
            assert stats["failed_ops"] == 0

    def test_sharded_session_with_faults(self):
        config = SessionConfig(
            seed=5,
            shards=2,
            buffer_pages=0,
            device_profile=fast_test_profile(),
            faults=FaultConfig(read_error_rate=0.05, write_error_rate=0.05),
        )
        with ShardedSession(config) as session:
            session.bulk_load(items(400))
            for key in range(1, 150):
                assert session.get(key) == payload(key)
            stats = session.stats()
            assert stats["user_failed"] == 0
            assert stats["faults"]["media_errors_injected"] > 0
            assert stats["io_retries"] > 0
            session.validate()

    def test_write_faults_never_lose_acknowledged_updates(self):
        config = fast(
            faults=FaultConfig(write_error_rate=0.3), buffer_pages=0
        )
        with PATreeSession(config) as session:
            session.bulk_load(items(100))
            for key in range(200, 260):
                assert session.put(key, payload(key))
            stats = session.stats()
            assert stats["lost_writes"] == 0
            session.validate()
            for key in range(200, 260):
                assert session.get(key) == payload(key)


# ----------------------------------------------------------------------
# the PA-Tree's lost-write path: a write that fails through every
# driver retry and every re-drive is declared lost
# ----------------------------------------------------------------------


def _is_op_write(command):
    return command.context is not None and command.context.kind != SYNC


def _is_sync_write(command):
    return command.context is not None and command.context.kind == SYNC


def _is_eviction_write(command):
    return command.context is None


class TestLostWrites:
    def _run(self, matches, persistence, buffer_pages):
        """40 inserts then a sync, one at a time, with the first write
        ``matches`` picks failing for good; returns (worker, ops)."""
        injector = FailOneWrite(matches)
        _engine, simos, _device, driver, tree = make_machine(
            preload=200, faults=injector
        )
        ops = [insert_op(k * 10 + 5, payload(k)) for k in range(1, 41)]
        ops.append(sync_op())
        worker = PaTreeEngine(
            simos,
            driver,
            tree,
            NaiveScheduling(),
            source=ClosedLoopSource(ops, window=1),
            buffer=make_buffer(persistence, buffer_pages),
        )
        worker.run_to_completion()
        assert injector.failed is not None
        assert worker.lost_writes.value == 1
        assert worker.io_escalations.value == worker.max_write_escalations
        # the sync finished, and no flush of the lost page is in flight
        assert all(op.state is ST_DONE for op in ops)
        assert worker._active_sync is None
        if worker.buffer is not None:
            assert worker.buffer.in_flight_data(injector.failed[0]) is None
        return worker, ops

    def test_a_lost_operation_write_fails_that_operation(self):
        _worker, ops = self._run(_is_op_write, "strong", 0)
        assert isinstance(ops[0].error, IoError)
        assert all(op.error is None for op in ops[1:])

    def test_a_lost_sync_flush_fails_the_sync(self):
        _worker, ops = self._run(_is_sync_write, "weak", 256)
        assert all(op.error is None for op in ops[:-1])
        assert isinstance(ops[-1].error, IoError)

    def test_a_lost_eviction_flush_fails_no_operation(self):
        worker, ops = self._run(_is_eviction_write, "weak", 2)
        assert all(op.error is None for op in ops)
        assert worker._background_outstanding == 0
