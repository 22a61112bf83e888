"""Unit tests for scheduling: I/O history, probe model, ready queues,
probing policies."""

import hashlib
import struct
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import PATreeSession, ShardedSession
from repro.core.engine import PaTreeEngine, POLLER_MODEL
from repro.core.ops import search_op, update_op
from repro.core.source import ClosedLoopSource
from repro.core.tree import PaTree
from repro.nvme.device import (
    DeviceProfile,
    NvmeDevice,
    fast_test_profile,
    i3_nvme_profile,
)
from repro.nvme.driver import NvmeDriver
from repro.sched import SCHEDULERS, make_scheduler
from repro.sched.history import IoHistory
from repro.sched.naive import NaiveScheduling
from repro.sched.policies import AvgLatencyProbing, FixedRateProbing
from repro.sched.priority import FifoReadyQueue, PriorityReadyQueue
from repro.sched import probe_model
from repro.sched.probe_model import (
    LinearProbeModel,
    cached_probe_model,
    probe_model_key,
    train_probe_model,
)
from repro.sched.trained_models import TRAINED
from repro.sched.workload_aware import WorkloadAwareScheduling
from repro.sim.clock import Clock, usec
from repro.sim.engine import Engine
from repro.sim.hooks import subscribe
from repro.simos.scheduler import OsProfile, SimOS

# train_probe_model(5, i3_nvme_profile(), duration_us=150_000): the
# normal equations it hands to solve() (sums of small integers, exact on
# any host; sha256 over the float64 bytes of the gram matrix then the
# right-hand side, row-major little-endian) and beta row by row as
# float.hex, the same on every CPython
PINNED_NORMAL_EQUATIONS = (
    "cac8adcfd824cf3cd3ec0184aacc5e45b97a4c4e7615ab8451b47ffd5cf7ec89"
)
PINNED_BETA_HEX = """
    0x1.12ae69b7c79b2p-6 -0x1.553cab9463537p-8 -0x1.ffa9c19afc0cep-6
    -0x1.935efc79bd5c2p-9 0x1.15736af3748c2p-6 0x1.96317e65bd3e3p-11
    0x1.0c3ac622e7fb1p-3 -0x1.0539d4d6c13b7p-10 0x1.7247ca9cba502p-2
    0x1.7fb569cee557ep-8 0x1.059e2179d7cfep-1 0x1.4a2940cbd8cfbp-7
    0x1.42d8271c98d14p-1 0x1.221e3d0b0399cp-7 0x1.53e4cc965237dp-1
    0x1.e18eeffa67089p-6 0x1.3e089bdc882d0p-1 -0x1.1872b3d06a05ep-6
    0x1.00be5bd043c6cp+0 -0x1.1af619ba9fcefp-6 0x1.31ebbe64d96c5p-2
    0x1.63055559530ffp-2 0x1.aba00d147086ap-1 0x1.9dae8ad131626p-4
    -0x1.0852986fb5c25p+0 -0x1.631b9bb2bf6b5p-2 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x1.d15141e669ac6p-7
    0x1.7e406008feb24p-9 -0x1.e7c0530232b11p-6 0x1.89db2c72e87edp-2
    0x1.24fec778e27edp-6 0x1.cc8965a8d4e0fp-1 0x1.5d30578a909c2p-4
    0x1.e69a1ba126387p-1 0x1.b3523c18561b2p-8 0x1.40108a895a82dp+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0 0x0.0p+0
    0x0.0p+0 0x0.0p+0
""".split()


class _Command:
    """What IoHistory reads of an NvmeCommand."""

    def __init__(self, submit_ns, is_write):
        self.submit_ns = submit_ns
        self.is_write = is_write


class _OracleHistory:
    """The loops over every outstanding command that IoHistory ran per
    question before it kept the counts and the sums: the reference it
    must equal."""

    def __init__(self, history):
        self.clock = history.clock
        self.slices = history.slices
        self.slice_ns = history.slice_ns
        self.outstanding = {}
        self.beta = None

    def on_submit(self, command):
        self.outstanding[command] = (command.submit_ns, command.is_write)

    def on_complete(self, command):
        self.outstanding.pop(command, None)

    def feature_vector(self, now=None):
        now = self.clock.now if now is None else now
        n = self.slices
        features = [0.0] * (2 * n)
        for submit_ns, is_write in self.outstanding.values():
            index = min(max((now - submit_ns) // self.slice_ns, 0), n - 1)
            features[index if is_write else n + index] += 1.0
        return features

    def prediction(self, now=None):
        """``T @ beta`` as exact fractions (zero with no model)."""
        w0 = r0 = Fraction(0)
        for count, (w, r) in zip(self.feature_vector(now), self.beta or ()):
            w0 += Fraction(count) * Fraction(w)
            r0 += Fraction(count) * Fraction(r)
        return w0, r0

    def verdict(self, now=None):
        return any(value >= 1 for value in self.prediction(now))

    def next_slice_crossing_ns(self):
        now = self.clock.now
        crossing = None
        for submit_ns, _is_write in self.outstanding.values():
            index = (now - submit_ns) // self.slice_ns
            if index < self.slices - 1:
                at_ns = submit_ns + (max(index, 0) + 1) * self.slice_ns
                if crossing is None or at_ns < crossing:
                    crossing = at_ns
        return crossing

    def verdict_until_ns(self, until_ns):
        """The from-scratch vector changes only where a command crosses
        into its next slice: the first such instant whose verdict
        differs from now's, else ``until_ns``."""
        now = self.clock.now
        instants = sorted({
            submit_ns + hop * self.slice_ns
            for submit_ns, _ in self.outstanding.values()
            for hop in range(1, self.slices)
            if now < submit_ns + hop * self.slice_ns < until_ns
        })
        verdict = self.verdict()
        for at_ns in instants:
            if self.verdict(at_ns) != verdict:
                return at_ns
        return until_ns


def _crossing(history):
    """The history's cached next crossing, brought up to now."""
    history.predicts_completion()
    crossing = history._next_crossing
    return None if crossing == sys.maxsize else crossing


class _CheckedHistory(IoHistory):
    """An IoHistory that holds every answer it gives against the oracle."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.oracle = _OracleHistory(self)
        self.answers = 0
        self.submits = self.completions = 0

    def use_model(self, model):
        self.oracle.beta = model.beta
        super().use_model(model)

    def on_submit(self, command):
        self.submits += 1
        self.oracle.on_submit(command)
        super().on_submit(command)

    def on_complete(self, command):
        self.completions += 1
        self.oracle.on_complete(command)
        super().on_complete(command)

    def predicts_completion(self):
        verdict = super().predicts_completion()
        self.answers += 1
        oracle = self.oracle
        assert self.counts == oracle.feature_vector()
        assert self.outstanding_count == len(oracle.outstanding)
        crossing = oracle.next_slice_crossing_ns()
        assert self._next_crossing == (sys.maxsize if crossing is None else crossing)
        # the running sums are the exact dot product, scaled
        assert (
            Fraction(self.w_sum, self.scale), Fraction(self.r_sum, self.scale)
        ) == oracle.prediction()
        assert verdict == oracle.verdict()
        return verdict

    def feature_vector(self):
        features = super().feature_vector()
        self.answers += 1
        assert features == self.oracle.feature_vector()
        return features

    def verdict_until_ns(self, until_ns):
        flip_ns = super().verdict_until_ns(until_ns)
        self.answers += 1
        assert flip_ns == self.oracle.verdict_until_ns(until_ns)
        self.predicts_completion()  # the walk left the sums as they are now
        return flip_ns


SLICE_NS = usec(10)
WINDOW_NS = 6 * SLICE_NS

# betas that make the verdict flip both ways as I/Os age and complete;
# 0.1 and 0.3 are not sums of powers of two
_BETAS = st.sampled_from([0.0, 0.1, 0.25, 0.3, 0.5, 1.0, -0.25, -0.5])

_STEPS = st.one_of(
    st.just(("read", 0)),
    st.just(("write", 0)),
    st.tuples(st.just("complete"), st.integers(0, 7)),
    st.tuples(
        st.just("advance"),
        st.one_of(
            st.integers(0, SLICE_NS - 1),
            st.just(SLICE_NS),
            st.integers(SLICE_NS + 1, 4 * SLICE_NS),
            st.integers(WINDOW_NS, 3 * WINDOW_NS),
        ),
    ),
    st.tuples(st.just("ask"), st.integers(0, 2)),
)


def _model(betas, slices, window_us):
    size = len(betas)
    beta = [(betas[i % size], betas[-1 - i % size]) for i in range(2 * slices)]
    return LinearProbeModel(beta, window_us=window_us, slices=slices)


@settings(max_examples=200, deadline=None)
@given(
    script=st.lists(_STEPS, max_size=80),
    slices=st.sampled_from([1, 2, 6]),
    betas=st.lists(_BETAS, min_size=1, max_size=6),
    ahead=st.one_of(
        st.integers(1, SLICE_NS - 1),
        st.just(SLICE_NS),
        st.integers(SLICE_NS + 1, 3 * WINDOW_NS),
    ),
)
def test_history_equals_the_from_scratch_loops(script, slices, betas, ahead):
    """Whatever is submitted, completed (not oldest first) and however
    the clock moves between questions, every answer is the one a loop
    over the outstanding commands gives, whichever reader asks first:
    the vector, the exact running sums and verdict, the cached crossing
    and the instant the verdict flips, looked ahead below, at and above
    one slice."""
    clock = Clock()
    history = _CheckedHistory(clock, window_us=60, slices=slices)
    history.use_model(_model(betas, slices, 60))
    oracle = history.oracle
    readers = [
        history.feature_vector,
        history.predicts_completion,
        lambda: history.verdict_until_ns(clock.now + ahead),
    ]
    for step, value in script + [("ask", 0)]:
        if step == "advance":
            clock.advance_to(clock.now + value)
        elif step == "complete":
            if value < len(oracle.outstanding):
                history.on_complete(list(oracle.outstanding)[value])
        elif step == "ask":
            for reader in readers[value:] + readers[:value]:
                reader()
        else:
            history.on_submit(_Command(clock.now, step == "write"))
        assert history.outstanding_count == len(oracle.outstanding)


@settings(max_examples=300, deadline=None)
@given(
    script=st.lists(
        st.one_of(
            st.tuples(st.sampled_from(["read", "write"]), st.integers(0, 0)),
            st.tuples(st.just("complete"), st.integers(0, 5)),
            st.tuples(st.just("advance"), st.integers(0, 25)),
        ),
        max_size=40,
    ),
    betas=st.lists(_BETAS, min_size=1, max_size=6),
    ahead=st.integers(1, 70),
)
def test_the_lookahead_is_the_first_instant_the_verdict_flips(script, betas, ahead):
    """On 10 ns slices the from-scratch verdict is read at every
    nanosecond up to the bound: the bound is where it first differs from
    now's, never later (windows below, at and far above one slice)."""
    clock = Clock()
    history = _CheckedHistory(clock, window_us=0.06, slices=6)
    assert history.slice_ns == 10
    history.use_model(_model(betas, 6, 0.06))
    oracle = history.oracle
    for step, value in script:
        if step == "advance":
            clock.advance_to(clock.now + value)
        elif step == "complete":
            if value < len(oracle.outstanding):
                history.on_complete(list(oracle.outstanding)[value])
        else:
            history.on_submit(_Command(clock.now, step == "write"))
    now = clock.now
    until_ns = now + ahead
    flip_ns = history.verdict_until_ns(until_ns)
    verdict = oracle.verdict()
    brute = next(
        (at_ns for at_ns in range(now, until_ns) if oracle.verdict(at_ns) != verdict),
        until_ns,
    )
    assert flip_ns == brute


def test_the_exact_verdict_where_the_float_sum_falls_short():
    """beta 0.1 in ten columns, one read in each: added in index order
    the doubles sum to 0.9999999999999999 and a float rule predicts
    nothing; the doubles themselves sum to more than one, and the exact
    rule, the model's and the history's alike, predicts a completion."""
    slices = 10
    beta = [(0.0, 0.0)] * slices + [(0.0, 0.1)] * slices
    model = LinearProbeModel(beta, window_us=100, slices=slices)
    float_sum = 0.0
    for _ in range(slices):
        float_sum += 0.1
    assert float_sum == 0.9999999999999999 < 1.0
    assert slices * Fraction(0.1) > 1
    features = [0] * slices + [1] * slices
    assert model.predicts_completion(features)
    clock = Clock()
    history = _CheckedHistory(clock, window_us=100, slices=slices)
    history.use_model(model)
    for index in range(slices):  # at 90 us, one read in each slice
        clock.advance_to(usec(10) * index)
        history.on_submit(_Command(clock.now, False))
    assert history.feature_vector() == features
    assert history.predicts_completion()
    assert history.r_sum == history.scale * slices * Fraction(0.1)


class TestIoHistory:
    def _history(self):
        engine = Engine(seed=1)
        device = NvmeDevice(engine, fast_test_profile())
        driver = NvmeDriver(device)
        qpair = driver.alloc_qpair()
        history = IoHistory(engine.clock, window_us=1000, slices=20)
        return engine, driver, qpair, history

    def _checked(self):
        clock = Clock()
        return clock, _CheckedHistory(clock, window_us=1000, slices=20)

    def test_outstanding_tracking(self):
        engine, driver, qpair, history = self._history()
        command = driver.read(qpair, 1)
        history.on_submit(command)
        assert history.outstanding_count == 1
        engine.run()
        driver.probe(qpair)
        history.on_complete(command)
        assert history.outstanding_count == 0

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
        # 120us on both have aged two slices
        engine.clock.advance_to(engine.now + usec(120))
        future = history.feature_vector()
        assert future[n + 2] == 1.0
        assert future[2] == 1.0
        assert sum(future) == 2.0
        assert features[n] == 1.0  # the first answer was the caller's to keep

    def test_old_commands_clamp_to_last_slice(self):
        engine, driver, qpair, history = self._history()
        command = driver.read(qpair, 1)
        history.on_submit(command)
        engine.clock.advance_to(engine.now + usec(5_000))
        features = history.feature_vector()
        assert features[2 * history.slices - 1] == 1.0
        assert sum(features) == 1.0
        assert _crossing(history) is None

    def test_record_jumps_several_slices_in_one_sweep(self):
        clock, history = self._checked()
        history.on_submit(_Command(0, False))
        clock.advance_to(usec(30))
        history.on_submit(_Command(clock.now, True))
        clock.advance_to(usec(260))  # nobody asked on the way
        features = history.feature_vector()
        assert features[20 + 5] == 1.0  # the read, 260us old
        assert features[4] == 1.0  # the write, 230us old
        assert _crossing(history) == usec(30) + 5 * usec(50)

    def test_crossing_is_exact_after_a_completion(self):
        clock, history = self._checked()
        first = _Command(0, False)
        history.on_submit(first)
        clock.advance_to(usec(10))
        second = _Command(clock.now, False)
        history.on_submit(second)
        clock.advance_to(usec(20))
        third = _Command(clock.now, True)
        history.on_submit(third)
        assert _crossing(history) == usec(50)
        # not a FIFO head: the cached instant is still the head's
        history.on_complete(second)
        assert _crossing(history) == usec(50)
        # the head the cached instant belonged to: the next one's, not early
        history.on_complete(first)
        assert _crossing(history) == usec(70)
        # across FIFOs: the older record owns the instant, then dies
        clock.advance_to(usec(75))
        fourth = _Command(clock.now, False)
        history.on_submit(fourth)
        assert _crossing(history) == usec(120)
        history.on_complete(third)
        assert _crossing(history) == usec(125)
        history.on_complete(fourth)
        assert _crossing(history) is None

    def test_no_reader_keeps_a_bounded_number_of_records(self):
        clock, history = self._checked()
        outstanding = [_Command(0, False) for _ in range(8)]
        for command in outstanding:
            history.on_submit(command)
        for step in range(10_000):
            clock.advance_to(clock.now + usec(1))
            command = _Command(clock.now, step % 3 == 0)
            outstanding.append(command)
            history.on_submit(command)
            # oldest and second oldest in turn: not every one is a head
            history.on_complete(outstanding.pop(step % 2))
            assert len(history._records) == 8
            assert sum(len(fifo) for fifo, _, _ in history._walk) <= 16
        assert history.answers == 0
        assert history.outstanding_count == 8
        history.feature_vector()  # ten windows late, against the oracle

    def test_completion_of_a_command_never_submitted(self):
        clock, history = self._checked()
        history.keep_latency_window()
        history.use_model(LinearProbeModel([(0.5, 0.5)] * 40))
        history.on_submit(_Command(0, False))
        clock.advance_to(usec(40))
        vector = history.feature_vector()
        sums = (history.w_sum, history.r_sum)
        history.on_complete(_Command(usec(10), True))
        assert history.outstanding_count == 1
        assert history.avg_completion_latency_ns() == usec(30)
        assert history.feature_vector() == vector
        assert (history.w_sum, history.r_sum) == sums

    def test_outstanding_set_is_keyed_by_the_command(self):
        # nothing else holds these commands: keyed by id() the second
        # could take the first one's freed address and its entry
        clock, history = self._checked()
        history.on_submit(_Command(0, False))
        history.on_submit(_Command(0, True))
        assert history.outstanding_count == 2
        assert sum(history.feature_vector()) == 2.0

    def test_driver_retry_keeps_the_first_submit_instant(self):
        clock, history = self._checked()
        history.keep_latency_window()
        command = _Command(0, False)
        history.on_submit(command)
        clock.advance_to(usec(70))
        command.submit_ns = clock.now  # NvmeDriver re-enqueues the command
        clock.advance_to(usec(120))
        assert history.feature_vector()[20 + 2] == 1.0  # 120us, not 50us
        history.on_complete(command)
        assert history.avg_completion_latency_ns() == usec(50)

    def test_avg_latency_window(self):
        engine, driver, qpair, history = self._history()
        history.keep_latency_window()
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
        features = [0] * (2 * n)
        features[n + 2] = 4  # four reads aged ~100-150us
        w0, r0 = (4 * Fraction(value) for value in model.beta[n + 2])
        assert r0 > 1
        assert abs(w0) < 1
        assert model.predicts_completion(features)
        # an empty system predicts nothing
        assert not model.predicts_completion([0] * (2 * n))

    def test_the_scaled_betas_are_the_betas_exactly(self):
        model = cached_probe_model(i3_nvme_profile())
        assert model.scale == 2 ** 62
        for row, ints in zip(model.beta, model.weights):
            assert [Fraction(value) for value in row] == [
                Fraction(value, model.scale) for value in ints
            ]

    def _train(self, monkeypatch, slow=False):
        """The pinned training run: its model, the digest of the normal
        equations it solved, and its kernel; ``slow`` subscribes to
        ``on_dispatch``, which sends every event through the heap."""
        engines = []
        digests = []
        systems = []

        class Recorded(Engine):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                engines.append(self)
                if slow:
                    subscribe(self, "on_dispatch", lambda entry: None)

        solve = probe_model.solve

        def capture(gram, rhs):
            flat = [value for row in gram + rhs for value in row]
            packed = struct.pack("<%dd" % len(flat), *flat)
            digests.append(hashlib.sha256(packed).hexdigest())
            systems.append((gram, rhs))
            return solve(gram, rhs)

        monkeypatch.setattr(probe_model, "Engine", Recorded)
        monkeypatch.setattr(probe_model, "solve", capture)
        model = train_probe_model(5, i3_nvme_profile(), duration_us=150_000)
        (engine,) = engines
        return model, digests, systems, engine

    def test_training_is_bit_equal_to_the_pinned_one(self, monkeypatch):
        model, digests, _, engine = self._train(monkeypatch)
        assert digests == [PINNED_NORMAL_EQUATIONS]
        assert [value.hex() for row in model.beta for value in row] == PINNED_BETA_HEX
        # idle submit ticks went by in place
        assert engine.inlined > 0

    def test_training_through_the_heap_solves_the_same_system(self, monkeypatch):
        model, digests, _, engine = self._train(monkeypatch, slow=True)
        assert engine.inlined == 0
        assert digests == [PINNED_NORMAL_EQUATIONS]
        assert [value.hex() for row in model.beta for value in row] == PINNED_BETA_HEX

    def test_solve_agrees_with_numpy(self, monkeypatch):
        np = pytest.importorskip("numpy")
        model, _, systems, _ = self._train(monkeypatch)
        ((gram, rhs),) = systems
        expected = np.linalg.solve(np.array(gram), np.array(rhs))
        scale = float(np.abs(expected).max())
        assert np.abs(np.array(model.beta) - expected).max() <= 1e-12 * scale

    def test_normal_equations_are_exact_sums(self):
        rows_x = [[0, 3, 0, 1], [2, 0, 0, 300], [1, 1, 0, 0], [0, 0, 0, 0]]
        rows_y = [(1, 0), (0, 2), (1, 1), (0, 0)]
        gram, rhs = probe_model.normal_equations(rows_x, rows_y, 4, 0.5)
        for i in range(4):
            for j in range(4):
                expected = sum(row[i] * row[j] for row in rows_x)
                assert gram[i][j] == expected + (0.5 if i == j else 0.0)
            for k in range(2):
                assert rhs[i][k] == sum(
                    row[i] * target[k] for row, target in zip(rows_x, rows_y)
                )

    def test_solve_recovers_an_exact_solution(self):
        matrix = [[0.0, 2.0, 1.0], [1.0, 1.0, 0.0], [4.0, 0.0, 2.0]]
        beta = [(1.0, -2.0), (0.5, 3.0), (-1.0, 0.25)]
        rhs = [
            [sum(a * b[k] for a, b in zip(row, beta)) for k in range(2)]
            for row in matrix
        ]
        assert probe_model.solve(matrix, rhs) == beta

    def test_trainer_rows_are_distinct_lists(self, monkeypatch):
        """sample_tick keeps what feature_vector returns: a row that
        aliased the history's live counts would go on changing."""
        kept = []

        class Recording(IoHistory):
            def feature_vector(self):
                features = super().feature_vector()
                kept.append((features, list(features)))
                return features

        monkeypatch.setattr(probe_model, "IoHistory", Recording)
        train_probe_model(5, i3_nvme_profile(), duration_us=20_000)
        assert len(kept) == 20_000 // 50  # one sample per slice width
        assert len({id(features) for features, _ in kept}) == len(kept)
        assert all(features == snapshot for features, snapshot in kept)
        assert any(sum(snapshot) for _, snapshot in kept)

    @pytest.mark.parametrize("field, value", [
        ("service_sigma", 0.6),
        ("fetch_ns", usec(1.2)),
        ("post_ns", usec(0.8)),
        ("probe_iface_ns", usec(6.0)),
        ("iface_backlog_cap_ns", usec(12.0)),
        ("page_size", 4096),
        ("capacity_pages", 50_000),
    ])
    def test_the_model_cache_keys_on_every_profile_field(self, field, value):
        # a short training and a seed of its own: keys no other test shares
        model = cached_probe_model(fast_test_profile(), seed=77, duration_us=5_000)
        assert cached_probe_model(
            fast_test_profile(), seed=77, duration_us=5_000
        ) is model
        other = cached_probe_model(
            fast_test_profile(**{field: value}), seed=77, duration_us=5_000
        )
        assert other is not model

    def test_predicts_completion_threshold(self):
        beta = [(0.0, 0.0)] * 40
        beta[20] = (0.0, 0.5)
        model = LinearProbeModel(beta)
        features = [0] * 40
        features[20] = 1
        assert not model.predicts_completion(features)
        features[20] = 2
        assert model.predicts_completion(features)

    def test_beta_shape_validated(self):
        with pytest.raises(ValueError):
            LinearProbeModel([(0.0, 0.0)] * 3)
        with pytest.raises(ValueError):
            LinearProbeModel([(0.0, 0.0, 0.0)] * 40)


class _Trained(Exception):
    """Raised by the patched trainer: this call would have trained."""


class TestTrainedModels:
    """The committed table ``cached_probe_model`` serves before it trains."""

    def test_every_entry_equals_a_fresh_training(self):
        assert TRAINED
        for key, (beta, window_us, slices) in TRAINED.items():
            fields, seed, kwargs = key
            profile = DeviceProfile(**dict(zip(DeviceProfile.__slots__, fields)))
            assert probe_model_key(profile, seed, **dict(kwargs)) == key
            model = train_probe_model(seed, profile, **dict(kwargs))
            assert (model.beta, model.window_us, model.slices) == (
                beta, window_us, slices
            ), (
                "src/repro/sched/trained_models.py is stale: regenerate it "
                "with PYTHONPATH=src python -m tools.train_probe_models"
            )

    @pytest.fixture
    def untrained(self, monkeypatch):
        """An empty process memo and a trainer that raises when called."""
        def refuse(*args, **kwargs):
            raise _Trained(args, kwargs)

        monkeypatch.setattr(probe_model, "_MODEL_CACHE", {})
        monkeypatch.setattr(probe_model, "train_probe_model", refuse)

    def test_the_library_builds_its_models_without_training(self, untrained):
        assert isinstance(make_scheduler("workload_aware"), WorkloadAwareScheduling)
        with PATreeSession(scheduler="workload_aware") as session:
            assert isinstance(session.pa_engine.policy, WorkloadAwareScheduling)
        with ShardedSession(scheduler="workload_aware", shards=2) as session:
            for engine in session.sharded.engines:
                assert isinstance(engine.policy, WorkloadAwareScheduling)
        # what figs 10-13 ask for
        model = cached_probe_model(i3_nvme_profile())
        assert model.beta == TRAINED[probe_model_key(i3_nvme_profile())][0]

    @pytest.mark.parametrize("slot", DeviceProfile.__slots__)
    def test_a_profile_one_field_off_trains(self, untrained, slot):
        profile = i3_nvme_profile()
        value = getattr(profile, slot)
        setattr(profile, slot, value + "x" if isinstance(value, str) else value * 2)
        with pytest.raises(_Trained):
            cached_probe_model(profile)

    @pytest.mark.parametrize("seed, kwargs", [
        (12346, {}),
        (12345, {"duration_us": 399_999}),
        (12345, {"window_us": 500}),
        (12345, {"slices": 10}),
        (12345, {"max_outstanding": 64}),
        (12345, {"ridge": 1e-5}),
    ])
    def test_another_seed_or_kwarg_trains(self, untrained, seed, kwargs):
        with pytest.raises(_Trained):
            cached_probe_model(i3_nvme_profile(), seed, **kwargs)

    def test_a_default_spelled_out_is_the_same_model(self, untrained):
        model = cached_probe_model(i3_nvme_profile())
        assert cached_probe_model(i3_nvme_profile(), duration_us=400_000) is model
        assert cached_probe_model(
            i3_nvme_profile(), 12345, window_us=1000, slices=20,
            max_outstanding=96, ridge=1e-6,
        ) is model

    def test_a_default_spelled_out_trains_once(self, monkeypatch):
        trained = []
        train = probe_model.train_probe_model

        def counted(*args, **kwargs):
            trained.append(args)
            return train(*args, **kwargs)

        monkeypatch.setattr(probe_model, "_MODEL_CACHE", {})
        monkeypatch.setattr(probe_model, "train_probe_model", counted)
        model = cached_probe_model(fast_test_profile(), seed=78, duration_us=5_000)
        assert cached_probe_model(
            fast_test_profile(), seed=78, duration_us=5_000, ridge=1e-6
        ) is model
        assert len(trained) == 1
        with pytest.raises(TypeError):
            probe_model_key(fast_test_profile(), 78, duration=5_000)


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


    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 2)), max_size=40))
    def test_every_ready_set_is_truthy_exactly_when_it_holds_an_op(self, steps):
        # the main loop tests the container, not ready_count()
        policies = [
            NaiveScheduling(),
            WorkloadAwareScheduling(None),
            WorkloadAwareScheduling(None, prioritized=False),
            FixedRateProbing(5),
            AvgLatencyProbing(),
        ]
        for seq, (push, write_latches) in enumerate(steps):
            for policy in policies:
                if push:
                    op = search_op(seq)
                    op.seq = seq
                    op.write_latches = write_latches
                    policy.on_ready(op)
                else:
                    policy.pick()
                assert bool(policy.ready) == (policy.ready_count() > 0)


@pytest.mark.parametrize("name", SCHEDULERS)
def test_a_policys_cpu_costs_do_not_change_during_a_run(name):
    """The main loop reads the gate cost once, when the working thread
    starts (``SchedulingPolicy``'s contract)."""
    engine = Engine(seed=3)
    simos = SimOS(engine, OsProfile(cores=2))
    device = NvmeDevice(engine, fast_test_profile())
    tree = PaTree.create(device)
    tree.bulk_load([(key, bytes(8)) for key in range(0, 4_000, 2)])
    policy = make_scheduler(name)
    worker = PaTreeEngine(
        simos, NvmeDriver(device), tree, policy, ClosedLoopSource([]),
    )
    costs = []
    should_probe = policy.should_probe

    def asked():
        costs.append(policy.gate_cost_ns())
        return should_probe()

    policy.should_probe = asked
    operations = [
        update_op(key, b"u" * 8) if key % 3 else search_op(key)
        for key in range(1, 4_000, 13)
    ]
    worker.run_operations(operations, window=32)
    assert len(costs) > 100
    assert set(costs) == {
        worker.costs.probe_model_ns if name == "workload_aware" else 0
    }


class _FakeEngine:
    """Minimal engine stub for policy unit tests."""

    def __init__(self):
        self.clock = Engine(seed=0).clock

        class _History:
            outstanding_count = 1

            @staticmethod
            def keep_latency_window():
                pass

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
        policy.note_probe(engine.clock.now)
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
        policy.note_probe(engine.clock.now)
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


class TestWorkloadAwareVerdict:
    """The policy's verdict, read off a real history's running sums."""

    def _model(self, slices=10):
        # a read at least one slice old, or three writes, is a completion
        beta = [(0.34, 0.0)] * (slices + 1) + [(0.34, 1.0)] * (slices - 1)
        return LinearProbeModel(beta, window_us=100, slices=slices)

    def _bound(self, model):
        policy = WorkloadAwareScheduling(model)
        engine = _FakeEngine()
        engine.io_history = _CheckedHistory(
            engine.clock, window_us=model.window_us, slices=model.slices
        )
        policy.bind(engine)
        return policy, engine.clock, engine.io_history

    def test_the_model_is_not_asked_during_a_run(self):
        asked = []

        class Counting(LinearProbeModel):
            def predicts_completion(self, features):
                asked.append(list(features))
                return super().predicts_completion(features)

        model = self._model()
        model.__class__ = Counting
        policy, clock, history = self._bound(model)
        read = _Command(0, False)
        history.on_submit(read)
        for now in range(0, usec(10), 500):  # many turns inside one slice
            clock.advance_to(now)
            assert not history.predicts_completion()
            assert policy.idle_sleep_ns() > 0
        clock.advance_to(usec(10))  # the read ages into slice 1
        assert history.predicts_completion()
        assert policy.idle_sleep_ns() == 0
        history.on_complete(read)
        history.on_submit(_Command(clock.now, True))
        assert not history.predicts_completion()
        assert not asked

    def test_a_run_of_idle_turns_ends_where_the_verdict_flips(self):
        """A crossing that leaves the verdict as it is does not cut the
        run: only the gap threshold or a flip does."""
        policy, clock, history = self._bound(self._model())
        step_ns = 500
        history.on_submit(_Command(0, True))  # 0.34 in every slice
        assert not policy.should_probe()  # starts the gap clock at 0
        clock.advance_to(usec(5))
        assert not policy.should_probe()  # the model declines
        # the write crosses at 10, 20, ... us; the gap ends at 100 us
        assert policy.idle_repeats(step_ns, False) == (usec(95) - 1) // step_ns
        history.on_submit(_Command(clock.now, False))  # a completion at 15 us
        assert policy.idle_repeats(step_ns, False) == (usec(10) - 1) // step_ns
        clock.advance_to(usec(15))
        assert policy.should_probe()

    def test_dedicated_poller_and_worker_share_one_history(self):
        """PAD+: the worker submits, the poller completes and asks, and
        the worker's idle_sleep_ns asks too -- every answer is checked
        against the from-scratch loops."""
        engine = Engine(seed=3)
        simos = SimOS(engine, OsProfile(cores=4))
        device = NvmeDevice(engine, fast_test_profile())
        driver = NvmeDriver(device)
        tree = PaTree.create(device)
        tree.bulk_load([(k * 10, bytes(8)) for k in range(1, 2_001)])
        model = self._model()
        operations = [
            update_op(k * 10, bytes(8)) if k % 3 == 0 else search_op(k * 10)
            for k in range(1, 301)
        ]
        pa = PaTreeEngine(
            simos,
            driver,
            tree,
            WorkloadAwareScheduling(model),
            source=ClosedLoopSource(operations, window=16),
            dedicated_poller=POLLER_MODEL,
        )
        pa.io_history = history = _CheckedHistory(
            engine.clock, window_us=model.window_us, slices=model.slices
        )
        pa.policy.bind(pa)  # the policy hands the new history its model
        pa.run_to_completion()
        assert all(op.error is None for op in operations)
        assert history.outstanding_count == 0
        assert history.completions == history.submits
        assert history.answers > history.completions
        assert sum(history.feature_vector()) == 0.0


@pytest.mark.parametrize("policy", ["workload_aware", "naive", "avg_latency"])
def test_only_the_avg_latency_policy_keeps_each_completion(policy):
    """The rolling latency window lives with its one reader: any other
    worker's history holds no per-completion record after a run."""
    engine = Engine(seed=3)
    simos = SimOS(engine, OsProfile(cores=2))
    device = NvmeDevice(engine, fast_test_profile())
    tree = PaTree.create(device)
    tree.bulk_load([(key, bytes(8)) for key in range(0, 4_000, 2)])
    worker = PaTreeEngine(
        simos,
        NvmeDriver(device),
        tree,
        AvgLatencyProbing() if policy == "avg_latency" else make_scheduler(policy),
        ClosedLoopSource([]),
    )
    operations = [search_op(key) for key in range(0, 4_000, 14)]
    worker.run_operations(operations, window=32)
    assert all(op.result is not None for op in operations)  # each read a page
    history = worker.io_history
    if policy == "avg_latency":
        assert len(history._completions) >= len(operations)
        assert history.avg_completion_latency_ns() > 0
    else:
        assert history._completions is None
