"""Tests for the sharded multi-device PA-Tree (repro.shard)."""


import pytest

from repro.core.engine import PERSISTENCE_WEAK
from repro.core.ops import (
    delete_op,
    insert_op,
    range_op,
    search_op,
    sync_op,
    update_op,
)
from repro.errors import SchedulerError
from repro.nvme.device import fast_test_profile
from repro.nvme.driver import RetryPolicy
from repro.obs import TraceSession
from repro.shard import (
    HASH_PARTITIONING,
    RANGE_PARTITIONING,
    ShardedPaTree,
    shard_mix64,
)
from repro.sim.clock import usec
from repro.sim.engine import Engine
from repro.simos.scheduler import OsProfile, SimOS

BOTH = (HASH_PARTITIONING, RANGE_PARTITIONING)


def payload(key):
    return (key % 2**64).to_bytes(8, "little")


def preload_items(n):
    return [(k * 10, payload(k * 10)) for k in range(1, n + 1)]


def build(n_shards=4, partitioning=HASH_PARTITIONING, preload=2_000, seed=6,
          **kwargs):
    engine = Engine(seed=seed)
    simos = SimOS(engine, OsProfile(cores=8))
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


class TestConstruction:
    def test_shard_count_validated(self):
        with pytest.raises(SchedulerError):
            build(n_shards=0, preload=0)

    def test_partitioning_validated(self):
        with pytest.raises(SchedulerError):
            build(partitioning="mod", preload=0)

    def test_every_shard_owns_its_own_stack(self):
        sharded = build(n_shards=3, preload=0)
        assert len(set(map(id, sharded.devices))) == 3
        assert len(set(map(id, sharded.trees))) == 3
        assert len(set(map(id, sharded.engines))) == 3

    def test_mix_spreads_strided_keys(self):
        # the YCSB preload keys sit on a 2^20 stride; key % n would put
        # them all on one shard, the mix must not
        counts = [0, 0, 0, 0]
        for k in range(1, 2_001):
            counts[shard_mix64(k << 20) % 4] += 1
        assert min(counts) > 300

    @pytest.mark.parametrize("partitioning", BOTH)
    def test_bulk_load_balances(self, partitioning):
        sharded = build(partitioning=partitioning, preload=4_000)
        counts = [t.meta.key_count for t in sharded.trees]
        assert sum(counts) == 4_000
        assert min(counts) >= 700
        assert sharded.key_count == 4_000


class TestRouting:
    @pytest.mark.parametrize("partitioning", BOTH)
    def test_search_routes_to_owning_shard(self, partitioning):
        sharded = build(partitioning=partitioning)
        ops = sharded.run_operations(
            [search_op(10), search_op(19_990), search_op(5)]
        )
        assert ops[0].result == payload(10)
        assert ops[1].result == payload(19_990)
        assert ops[2].result is None

    @pytest.mark.parametrize("partitioning", BOTH)
    def test_mutations_across_shards(self, partitioning):
        sharded = build(partitioning=partitioning, n_shards=3, preload=1_500)
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
        sharded = build(
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
        sharded = build(n_shards=2, preload=200)
        sharded.run_operations([insert_op(3, payload(3))])
        sharded.run_operations([insert_op(7, payload(7))])
        (found,) = sharded.run_operations([search_op(3)])
        assert found.result == payload(3)
        assert sharded.key_count == 202


class TestCrossShardRanges:
    """Cross-shard range scans must equal a single-tree oracle."""

    @pytest.mark.parametrize("partitioning", BOTH)
    def test_full_span_matches_single_tree_oracle(self, partitioning):
        sharded = build(partitioning=partitioning, n_shards=4)
        oracle = build(partitioning=partitioning, n_shards=1)
        for low, high in ((10, 20_000), (95, 4_321), (1, 9)):
            (got,) = sharded.run_operations([range_op(low, high)])
            (want,) = oracle.run_operations([range_op(low, high)])
            assert got.result == want.result
            keys = [k for k, _v in got.result]
            assert keys == sorted(keys)

    @pytest.mark.parametrize("partitioning", BOTH)
    def test_limit_truncates_in_global_key_order(self, partitioning):
        sharded = build(partitioning=partitioning, n_shards=4)
        (op,) = sharded.run_operations([range_op(10, 20_000, limit=25)])
        assert [k for k, _v in op.result] == [k * 10 for k in range(1, 26)]

    def test_range_within_one_range_shard_is_not_scattered(self):
        sharded = build(partitioning=RANGE_PARTITIONING, n_shards=4)
        low_shard = sharded.shard_for(100)
        assert sharded.shard_for(200) == low_shard
        (op,) = sharded.run_operations([range_op(100, 200)])
        assert [k for k, _v in op.result] == list(range(100, 201, 10))


class TestDeterminismAndStats:
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
        first = build(partitioning=partitioning, seed=11)
        second = build(partitioning=partitioning, seed=11)
        ops_a = first.run_operations(self._ops(), window=4)
        ops_b = second.run_operations(self._ops(), window=4)
        assert [op.result for op in ops_a] == [op.result for op in ops_b]
        assert [op.done_ns for op in ops_a] == [op.done_ns for op in ops_b]
        assert first.engine.now == second.engine.now
        assert first.stats() == second.stats()

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


class TestObservability:
    def test_one_trace_session_records_all_shards(self):
        sharded = build(n_shards=2, preload=400)
        session = TraceSession(sharded.engine, sample_interval_ns=usec(5))
        sharded.attach_trace(session)
        session.start()
        sharded.run_operations(
            [search_op(k * 10) for k in range(1, 201)], window=16
        )
        session.finish()
        summary = session.sampler.summary()
        for index in range(2):
            assert "shard%d_outstanding" % index in summary
            assert "shard%d_ready_ops" % index in summary
        assert session.tracer.events
        assert session.op_latency  # per-op histograms recorded
        for device in sharded.devices:
            assert device.on_submit == ()  # observers unsubscribed
