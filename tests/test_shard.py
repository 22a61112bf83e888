"""Tests for the sharded PA-Tree router (repro.shard), both placements."""

import random

import pytest

from repro.api import PATreeSession, ShardedSession
from repro.backend import make_backend
from repro.core.engine import PERSISTENCE_WEAK
from repro.core.ops import (
    delete_op,
    insert_op,
    range_op,
    search_op,
    sync_op,
    update_op,
)
from repro.errors import SchedulerError, WorkloadError
from repro.nvme.device import fast_test_profile
from repro.nvme.driver import RetryPolicy
from repro.obs import MetricsSession, TraceSession
from repro.shard import (
    HASH_PARTITIONING,
    RANGE_PARTITIONING,
    ShardedPaTree,
    shard_mix64,
)
from repro.sim.clock import usec
from repro.sim.engine import Engine
from repro.sim.hooks import subscribe
from repro.simos.scheduler import OsProfile, SimOS

BOTH = (HASH_PARTITIONING, RANGE_PARTITIONING)
# where the shards' pages live: a backend spec gives every shard its own
# device, a built backend is the one device all of them share
PER_SHARD, SHARED = "spec", "built"


def payload(key):
    return (key % 2**64).to_bytes(8, "little")


def preload_items(n):
    return [(k * 10, payload(k * 10)) for k in range(1, n + 1)]


def build(n_shards=4, partitioning=HASH_PARTITIONING, preload=2_000, seed=6,
          placement=PER_SHARD, **kwargs):
    # the event budget turns a router that never finishes into an error
    engine = Engine(seed=seed, max_events=2_000_000)
    simos = SimOS(engine, OsProfile(cores=8))
    if placement == SHARED:
        kwargs["backend"] = make_backend(
            "sim", engine=engine, profile=fast_test_profile(),
            faults=kwargs.get("faults"), retry=kwargs.get("retry"),
        )
    sharded = ShardedPaTree(
        simos,
        n_shards,
        partitioning=partitioning,
        device_profile=fast_test_profile(),
        **kwargs,
    )
    if preload:
        sharded.bulk_load(preload_items(preload))
    return sharded


class Placed:
    """Suite run once per placement: a ``...Shared`` subclass flips it."""

    placement = PER_SHARD

    def build(self, **kwargs):
        return build(placement=self.placement, **kwargs)


class TestConstruction(Placed):
    def test_shard_count_validated(self):
        with pytest.raises(SchedulerError):
            self.build(n_shards=0, preload=0)

    def test_partitioning_validated(self):
        with pytest.raises(SchedulerError):
            self.build(partitioning="mod", preload=0)

    def test_every_shard_owns_its_own_stack(self):
        sharded = self.build(n_shards=3, preload=0)
        assert len(set(map(id, sharded.trees))) == 3
        assert len(set(map(id, sharded.engines))) == 3
        assert len({id(worker.qpair) for worker in sharded.engines}) == 3
        if self.placement == PER_SHARD:
            assert len(set(map(id, sharded.devices))) == 3
            assert not sharded.shared_device
            return
        # shared: one device, carved into disjoint per-shard regions
        (backend,) = sharded.backends
        assert sharded.devices == [backend.device]
        assert sharded.shared_device
        region = backend.capacity_pages // 3
        for index, tree in enumerate(sharded.trees):
            assert tree.meta_page == index * region
            allocator = tree.allocator
            assert allocator.base == tree.meta_page + 1
            assert allocator.base + allocator.capacity == (index + 1) * region

    def test_mix_spreads_strided_keys(self):
        # the YCSB preload keys sit on a 2^20 stride; key % n would put
        # them all on one shard, the mix must not
        counts = [0, 0, 0, 0]
        for k in range(1, 2_001):
            counts[shard_mix64(k << 20) % 4] += 1
        assert min(counts) > 300

    @pytest.mark.parametrize("partitioning", BOTH)
    def test_bulk_load_balances(self, partitioning):
        sharded = self.build(partitioning=partitioning, preload=4_000)
        counts = [t.meta.key_count for t in sharded.trees]
        assert sum(counts) == 4_000
        assert min(counts) >= 700
        assert sharded.key_count == 4_000


class TestConstructionShared(TestConstruction):
    placement = SHARED


class TestRouting(Placed):
    @pytest.mark.parametrize("partitioning", BOTH)
    def test_search_routes_to_owning_shard(self, partitioning):
        sharded = self.build(partitioning=partitioning)
        ops = sharded.run_operations(
            [search_op(10), search_op(19_990), search_op(5)]
        )
        assert ops[0].result == payload(10)
        assert ops[1].result == payload(19_990)
        assert ops[2].result is None

    @pytest.mark.parametrize("partitioning", BOTH)
    def test_mutations_across_shards(self, partitioning):
        sharded = self.build(
            partitioning=partitioning, n_shards=3, preload=1_500
        )
        ops = sharded.run_operations(
            [
                insert_op(5, payload(5)),
                insert_op(14_999, payload(14_999)),
                update_op(10, payload(1)),
                delete_op(20),
            ]
        )
        assert [op.result for op in ops] == [True, True, True, True]
        assert sharded.validate()["keys"] == 1_501
        data = dict(sharded.iterate_items_raw())
        assert data[5] == payload(5)
        assert data[10] == payload(1)
        assert 20 not in data

    def test_sync_broadcasts_to_every_shard(self):
        sharded = self.build(
            n_shards=2,
            preload=500,
            persistence=PERSISTENCE_WEAK,
            buffer_pages_per_shard=512,
        )
        sharded.run_operations(
            [update_op(10, payload(1)), update_op(4_990, payload(2))]
        )
        (sync,) = sharded.run_operations([sync_op()])
        assert sync.result >= 2  # both shards flushed something
        sharded.validate()

    def test_multiple_batches_reuse_the_workers(self):
        sharded = self.build(n_shards=2, preload=200)
        sharded.run_operations([insert_op(3, payload(3))])
        sharded.run_operations([insert_op(7, payload(7))])
        (found,) = sharded.run_operations([search_op(3)])
        assert found.result == payload(3)
        assert sharded.key_count == 202

    def test_nonpositive_window_is_a_typed_error(self):
        sharded = self.build(preload=0)
        with pytest.raises(WorkloadError, match="window must be positive"):
            sharded.run_operations([search_op(1)], window=0)

    @pytest.mark.parametrize("partitioning", BOTH)
    def test_equivalent_to_dict(self, partitioning):
        sharded = self.build(partitioning=partitioning, preload=1_000)
        rng = random.Random(12)
        model = dict(preload_items(1_000))
        ops = []
        for _ in range(600):
            roll = rng.random()
            hit = model and roll < 0.7
            key = rng.choice(sorted(model)) if hit else rng.randrange(1, 10**6)
            if roll < 0.3:
                ops.append(search_op(key))
            elif roll < 0.55:
                ops.append(insert_op(key, payload(key)))
                model[key] = payload(key)
            elif roll < 0.75:
                ops.append(delete_op(key))
                model.pop(key, None)
            else:
                ops.append(update_op(key, payload(key ^ 3)))
                if key in model:
                    model[key] = payload(key ^ 3)
        sharded.run_operations(ops, window=32)
        assert dict(sharded.iterate_items_raw()) == model
        sharded.validate()


class TestRoutingShared(TestRouting):
    placement = SHARED


class TestCrossShardRanges(Placed):
    """Cross-shard range scans must equal a single-tree oracle."""

    @pytest.mark.parametrize("partitioning", BOTH)
    def test_full_span_matches_single_tree_oracle(self, partitioning):
        sharded = self.build(partitioning=partitioning, n_shards=4)
        oracle = self.build(partitioning=partitioning, n_shards=1)
        # the last pair is inverted across a split key: [] everywhere
        for low, high in ((10, 20_000), (95, 4_321), (1, 9), (15_000, 100)):
            (got,) = sharded.run_operations([range_op(low, high)])
            (want,) = oracle.run_operations([range_op(low, high)])
            assert got.result == want.result
            keys = [k for k, _v in got.result]
            assert keys == sorted(keys)

    @pytest.mark.parametrize("partitioning", BOTH)
    def test_limit_truncates_in_global_key_order(self, partitioning):
        sharded = self.build(partitioning=partitioning, n_shards=4)
        (op,) = sharded.run_operations([range_op(10, 20_000, limit=25)])
        assert [k for k, _v in op.result] == [k * 10 for k in range(1, 26)]

    def test_range_within_one_range_shard_is_not_scattered(self):
        sharded = self.build(partitioning=RANGE_PARTITIONING, n_shards=4)
        low_shard = sharded.shard_for(100)
        assert sharded.shard_for(200) == low_shard
        (op,) = sharded.run_operations([range_op(100, 200)])
        assert [k for k, _v in op.result] == list(range(100, 201, 10))


class TestCrossShardRangesShared(TestCrossShardRanges):
    placement = SHARED


class SameSeedSuite(Placed):
    def _ops(self):
        return [
            search_op(10),
            insert_op(7, payload(7)),
            range_op(50, 5_000),
            update_op(500, payload(1)),
            delete_op(660),
            search_op(19_990),
        ]

    @pytest.mark.parametrize("partitioning", BOTH)
    def test_same_seed_runs_are_identical(self, partitioning):
        first = self.build(partitioning=partitioning, seed=11)
        second = self.build(partitioning=partitioning, seed=11)
        ops_a = first.run_operations(self._ops(), window=4)
        ops_b = second.run_operations(self._ops(), window=4)
        assert [op.result for op in ops_a] == [op.result for op in ops_b]
        assert [op.done_ns for op in ops_a] == [op.done_ns for op in ops_b]
        assert first.engine.now == second.engine.now
        assert first.stats() == second.stats()


    @pytest.mark.parametrize("partitioning", BOTH)
    def test_idle_shards_take_their_turns_in_bursts_and_nothing_moves(
        self, partitioning
    ):
        # window 2 on four shards: most workers spin with nothing to do
        # until another worker's completion makes the router feed them
        # or drains it -- a burst must stop short of that event
        plain = self.build(partitioning=partitioning, seed=11)
        slow = self.build(partitioning=partitioning, seed=11)
        subscribe(slow.engine, "on_dispatch", lambda event: None)
        ops_a, ops_b = (
            sharded.run_operations(
                [search_op(k * 10) for k in range(1, 41)] + self._ops(),
                window=2,
            )
            for sharded in (plain, slow)
        )
        assert [op.result for op in ops_a] == [op.result for op in ops_b]
        assert [op.done_ns for op in ops_a] == [op.done_ns for op in ops_b]
        assert plain.engine.now == slow.engine.now
        assert plain.stats() == slow.stats()
        for fast_worker, slow_worker in zip(plain.engines, slow.engines):
            assert fast_worker.idle_spins.value == slow_worker.idle_spins.value
            assert (
                fast_worker.worker_thread.account.by_category
                == slow_worker.worker_thread.account.by_category
            )
        assert slow.engine.inlined == 0
        assert (
            slow.engine.dispatched
            == plain.engine.dispatched + plain.engine.inlined
        )


class TestDeterminismAndStats(SameSeedSuite):
    def test_per_shard_stats_sum_to_router_totals(self):
        sharded = build(n_shards=4)
        sharded.run_operations(
            [search_op(k * 10) for k in range(1, 101)]
            + [range_op(100, 2_000), sync_op()]
        )
        stats = sharded.stats()
        assert len(stats["per_shard"]) == 4
        for key in (
            "completed",
            "probes",
            "latch_waits",
            "device_reads",
            "device_writes",
        ):
            assert stats[key] == sum(s[key] for s in stats["per_shard"])
        # device counters come straight from the per-shard devices
        assert stats["device_reads"] == sum(
            d.reads_completed.value for d in sharded.devices
        )
        # scattered parts count per shard; user ops count once
        assert stats["user_completed"] == 101
        assert stats["completed"] >= stats["user_completed"]

    def test_total_rollups_sum_per_shard_error_family(self):
        sharded = build(n_shards=4)
        sharded.run_operations(
            [search_op(k * 10) for k in range(1, 101)]
        )
        stats = sharded.stats()
        for key in (
            "device_errors",
            "io_errors",
            "failed_ops",
            "io_retries",
            "io_escalations",
            "lost_writes",
        ):
            rollup = stats["%s_total" % key]
            assert rollup == sum(s[key] for s in stats["per_shard"])
        # fault-free build: no injectors, so no faults rollup key
        assert "faults" not in stats

    def test_faults_rollup_sums_across_armed_shards(self):
        sharded = build(
            n_shards=2,
            preload=400,
            faults={"read_error_rate": 0.2},
            retry=RetryPolicy(max_retries=2),
        )
        sharded.run_operations(
            [search_op(k * 10) for k in range(1, 201)]
        )
        stats = sharded.stats()
        assert stats["faults"]["media_errors_injected"] > 0
        for key, total in stats["faults"].items():
            assert total == sum(
                s["faults"][key] for s in stats["per_shard"]
            )
        assert stats["io_retries_total"] > 0

    def test_stats_returns_a_fresh_dict_every_call(self):
        sharded = build(n_shards=2, preload=100)
        first = sharded.stats()
        second = sharded.stats()
        assert first is not second
        assert first == second
        first["completed"] = -1
        first["per_shard"][0]["completed"] = -1
        assert sharded.stats()["completed"] != -1


class TestDeterminismAndStatsShared(SameSeedSuite):
    placement = SHARED

    def test_shared_device_is_counted_once(self):
        sharded = self.build(
            preload=400,
            faults={"read_error_rate": 0.2},
            retry=RetryPolicy(max_retries=2),
        )
        sharded.run_operations([search_op(k * 10) for k in range(1, 201)])
        (backend,) = sharded.backends
        device, stats = backend.device, sharded.stats()
        assert stats["device_reads"] == device.reads_completed.value > 0
        assert stats["device_errors_total"] == device.errors_completed.value
        assert stats["io_retries_total"] == backend.retries_scheduled.value > 0
        assert stats["faults"] == device.fault_injector.stats()
        # a row holds device counters only for a device its shard owns alone
        for row in stats["per_shard"]:
            assert "device_reads" not in row and "faults" not in row


def test_sessions_reject_a_nonpositive_window():
    # both facades refuse at construction, with ClosedLoopSource's error type
    # and message
    for facade in (PATreeSession, ShardedSession):
        with pytest.raises(WorkloadError, match="window must be positive"):
            facade(window=0)


class TestObservability:
    def test_one_trace_session_records_all_shards(self):
        sharded = build(n_shards=2, preload=400)
        session = TraceSession(sharded.engine, sample_interval_ns=usec(5))
        session.attach_sharded(sharded)
        session.start()
        sharded.run_operations(
            [search_op(k * 10) for k in range(1, 201)], window=16
        )
        session.finish()
        summary = session.probe_summary()
        for index in range(2):
            assert "shard%d_outstanding" % index in summary
            assert "shard%d_ready_ops" % index in summary
        assert session.tracer.events
        assert session.op_latency  # per-op histograms recorded
        for device in sharded.devices:
            assert device.on_submit == ()  # observers unsubscribed

    def test_a_shared_device_attaches_once(self):
        sharded = build(n_shards=2, preload=400, placement=SHARED)
        (device,) = sharded.devices
        trace = TraceSession(sharded.engine, sample_interval_ns=usec(5))
        metrics = MetricsSession(sharded.engine, flight_capacity=10_000)
        trace.attach_sharded(sharded)
        metrics.attach_sharded(sharded)
        trace.start()
        sharded.run_operations([search_op(k * 10) for k in range(1, 201)])
        trace.finish()
        metrics.finish()
        summary = trace.probe_summary()
        assert "device_outstanding" in summary  # the unprefixed series
        assert "shard0_outstanding" not in summary
        assert "shard1_ready_ops" in summary
        by_kind = metrics.flight.summary()["by_kind"]
        assert by_kind["completion"] == device.total_completed
        scalars = metrics.registry.scalars()
        assert scalars["device_reads_total"] == device.reads_completed.value
        assert device.on_submit == () and device.on_complete == ()
