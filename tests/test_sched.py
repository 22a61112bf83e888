"""Unit tests for scheduling: I/O history, probe model, ready queues,
probing policies."""

import hashlib
import sys

import pytest

from repro.core.ops import search_op, update_op
from repro.nvme.device import NvmeDevice, fast_test_profile, i3_nvme_profile
from repro.nvme.driver import NvmeDriver
from repro.sched.history import IoHistory
from repro.sched.naive import NaiveScheduling
from repro.sched.policies import AvgLatencyProbing, FixedRateProbing
from repro.sched.priority import FifoReadyQueue, PriorityReadyQueue
from repro.sched.probe_model import LinearProbeModel, train_probe_model
from repro.sim.clock import usec
from repro.sim.engine import Engine

import numpy as np

# train_probe_model(5, i3_nvme_profile(), duration_us=150_000) as PR 23
# trained it: the normal equations it hands to numpy.linalg.solve (sums
# of small integers, exact on any host) and beta row by row as float.hex
# (CPython 3.11, the version the other numpy-fitted bytes are pinned on)
PINNED_NORMAL_EQUATIONS = (
    "cac8adcfd824cf3cd3ec0184aacc5e45b97a4c4e7615ab8451b47ffd5cf7ec89"
)
PINNED_BETA_HEX = """
    0x1.12ae69b7c799dp-6 -0x1.553cab9463536p-8 -0x1.ffa9c19afc0b6p-6
    -0x1.935efc79bd59bp-9 0x1.15736af3748d9p-6 0x1.96317e65bd1c6p-11
    0x1.0c3ac622e7fc4p-3 -0x1.0539d4d6c14aap-10 0x1.7247ca9cba4f7p-2
    0x1.7fb569cee5578p-8 0x1.059e2179d7cfdp-1 0x1.4a2940cbd8cf3p-7
    0x1.42d8271c98d16p-1 0x1.221e3d0b03a15p-7 0x1.53e4cc965237dp-1
    0x1.e18eeffa67074p-6 0x1.3e089bdc882d3p-1 -0x1.1872b3d06a068p-6
    0x1.00be5bd043c6dp+0 -0x1.1af619ba9fd11p-6 0x1.31ebbe64d96c0p-2
    0x1.6305555953105p-2 0x1.aba00d1470865p-1 0x1.9dae8ad131632p-4
    -0x1.0852986fb5c29p+0 -0x1.631b9bb2bf6b7p-2 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.d15141e669988p-7
    0x1.7e406008fec27p-9 -0x1.e7c0530232a97p-6 0x1.89db2c72e87ecp-2
    0x1.24fec778e27cdp-6 0x1.cc8965a8d4e0fp-1 0x1.5d30578a909e5p-4
    0x1.e69a1ba126387p-1 0x1.b3523c1855fcbp-8 0x1.40108a895a830p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0
""".split()


class TestIoHistory:
    def _history(self):
        engine = Engine(seed=1)
        device = NvmeDevice(engine, fast_test_profile())
        driver = NvmeDriver(device)
        qpair = driver.alloc_qpair()
        history = IoHistory(engine.clock, window_us=1000, slices=20)
        return engine, driver, qpair, history

    def test_outstanding_tracking(self):
        engine, driver, qpair, history = self._history()
        command = driver.read(qpair, 1)
        history.on_submit(command)
        assert history.outstanding_count == 1
        engine.run()
        driver.probe(qpair)
        history.on_complete(command)
        assert history.outstanding_count == 0
        assert history.detected_completions == 1

    def test_feature_vector_buckets_by_age(self):
        engine, driver, qpair, history = self._history()
        read = driver.read(qpair, 1)
        history.on_submit(read)
        write = driver.write(qpair, 2, bytes(512))
        history.on_submit(write)
        features = history.feature_vector()
        n = history.slices
        assert features[n] == 1.0  # read, slice 0
        assert features[0] == 1.0  # write, slice 0
        # project the same vector 120us into the future: both age
        future = history.feature_vector(engine.now + usec(120))
        assert future[n + 2] == 1.0
        assert future[2] == 1.0

    def test_old_commands_clamp_to_last_slice(self):
        engine, driver, qpair, history = self._history()
        command = driver.read(qpair, 1)
        history.on_submit(command)
        features = history.feature_vector(engine.now + usec(5_000))
        assert features[2 * history.slices - 1] == 1.0

    def test_avg_latency_window(self):
        engine, driver, qpair, history = self._history()
        commands = [driver.read(qpair, lba) for lba in range(1, 5)]
        for command in commands:
            history.on_submit(command)
        engine.run()
        driver.probe(qpair)
        for command in commands:
            history.on_complete(command)
        average = history.avg_completion_latency_ns()
        assert usec(5) < average < usec(60)


class TestProbeModel:
    def test_training_produces_sane_model(self):
        model = train_probe_model(
            5, i3_nvme_profile(), duration_us=150_000
        )
        # a device-latency-aged read should predict ~1 completion
        n = model.slices
        features = [0.0] * (2 * n)
        features[n + 2] = 4.0  # four reads aged ~100-150us
        w0, r0 = model.predict(features)
        assert r0 > 1.0
        assert abs(w0) < 1.0
        # an empty system predicts nothing
        assert model.predict([0.0] * (2 * n)) == (0.0, 0.0)

    def test_training_is_bit_equal_to_the_pinned_one(self, monkeypatch):
        seen = []
        solve = np.linalg.solve

        def capture(gram, rhs):
            seen.append(hashlib.sha256(gram.tobytes() + rhs.tobytes()).hexdigest())
            return solve(gram, rhs)

        monkeypatch.setattr(np.linalg, "solve", capture)
        model = train_probe_model(5, i3_nvme_profile(), duration_us=150_000)
        assert seen == [PINNED_NORMAL_EQUATIONS]
        if sys.version_info[:2] == (3, 11):
            beta_hex = [value.hex() for row in model.beta.tolist() for value in row]
            assert beta_hex == PINNED_BETA_HEX

    def test_predicts_completion_threshold(self):
        beta = np.zeros((40, 2))
        beta[20, 1] = 0.5
        model = LinearProbeModel(beta)
        features = [0.0] * 40
        features[20] = 1.0
        assert not model.predicts_completion(features)
        features[20] = 2.0
        assert model.predicts_completion(features)

    def test_beta_shape_validated(self):
        with pytest.raises(ValueError):
            LinearProbeModel(np.zeros((3, 2)))


class TestReadyQueues:
    def test_fifo_order(self):
        queue = FifoReadyQueue()
        ops = [search_op(i) for i in range(3)]
        for i, op in enumerate(ops):
            op.seq = i
            queue.push(op)
        assert [queue.pop() for _ in range(3)] == ops
        assert queue.pop() is None

    def test_priority_write_latch_holders_first(self):
        queue = PriorityReadyQueue()
        reader = search_op(1)
        reader.seq = 0
        writer = update_op(2, b"x" * 8)
        writer.seq = 5
        writer.write_latches = 1
        queue.push(reader)
        queue.push(writer)
        assert queue.pop() is writer
        assert queue.pop() is reader

    def test_priority_admission_order_tiebreak(self):
        queue = PriorityReadyQueue()
        older = search_op(1)
        older.seq = 1
        newer = search_op(2)
        newer.seq = 9
        queue.push(newer)
        queue.push(older)
        assert queue.pop() is older


class _FakeEngine:
    """Minimal engine stub for policy unit tests."""

    def __init__(self):
        self.clock = Engine(seed=0).clock

        class _History:
            outstanding_count = 1

            @staticmethod
            def avg_completion_latency_ns():
                return usec(40)

        self.io_history = _History()


class TestProbingPolicies:
    def test_naive_always_probes(self):
        policy = NaiveScheduling()
        assert policy.should_probe()
        assert policy.idle_sleep_ns() == 0

    def test_fixed_rate_period(self):
        policy = FixedRateProbing(50)
        engine = _FakeEngine()
        policy.bind(engine)
        assert policy.should_probe()  # never probed yet
        policy.note_probe(engine.clock.now, 0)
        assert not policy.should_probe()
        engine.clock.advance_to(usec(49))
        assert not policy.should_probe()
        engine.clock.advance_to(usec(51))
        assert policy.should_probe()

    def test_fixed_rate_rejects_negative(self):
        with pytest.raises(ValueError):
            FixedRateProbing(-1)

    def test_avg_latency_follows_measured_average(self):
        policy = AvgLatencyProbing()
        engine = _FakeEngine()
        policy.bind(engine)
        policy.note_probe(engine.clock.now, 0)
        engine.clock.advance_to(usec(39))
        assert not policy.should_probe()
        engine.clock.advance_to(usec(41))
        assert policy.should_probe()

    def test_timer_policies_skip_probe_with_no_outstanding(self):
        policy = FixedRateProbing(0)
        engine = _FakeEngine()
        engine.io_history.outstanding_count = 0
        policy.bind(engine)
        assert not policy.should_probe()
