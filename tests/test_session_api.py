"""Tests for the unified session facade (repro.api).

Covers the shared session shape: SessionConfig merging, keyword
construction, context-manager lifecycle, the
dict-style sugar, and the stats() snapshot contract (fresh dict per
call, cumulative counters).
"""

import inspect

import pytest

import repro.api
from repro import (
    AsyncLsmSession,
    OpSpec,
    PATreeSession,
    SessionConfig,
    ShardedSession,
)
from repro.bench.runner import WorkloadSpec, run_pa
from repro.errors import ReproError, SchedulerError
from repro.nvme.device import fast_test_profile


def payload(key):
    return (key % 2**64).to_bytes(8, "little")


def fast(**overrides):
    base = dict(seed=5, scheduler="naive", device_profile=fast_test_profile())
    base.update(overrides)
    return SessionConfig(**base)


# every builder that turns a persistence string into a tree buffer
PERSISTENCE_BUILDERS = {
    "PATreeSession": lambda **kwargs: PATreeSession(fast(**kwargs)),
    "ShardedSession": lambda **kwargs: ShardedSession(fast(**kwargs)),
    "run_pa": lambda **kwargs: run_pa(
        WorkloadSpec(kind="ycsb", n_keys=50, n_ops=10),
        scheduler="naive",
        device_profile=fast_test_profile(),
        **kwargs,
    ),
}


class TestSessionConfig:
    def test_defaults_match_the_paper_setup(self):
        config = SessionConfig()
        assert config.seed == 0
        assert config.payload_size == 8
        assert config.persistence == "strong"
        assert config.scheduler == "workload_aware"
        assert config.window == 64

    def test_merged_overrides_and_is_a_copy(self):
        config = SessionConfig(seed=1)
        merged = config.merged(seed=9, shards=2)
        assert (merged.seed, merged.shards) == (9, 2)
        assert config.seed == 1  # frozen original untouched

    def test_merged_rejects_unknown_fields(self):
        with pytest.raises(TypeError):
            SessionConfig().merged(qpair_depth=3)

    @pytest.mark.parametrize("payload_size", [0, 600])
    def test_unusable_payload_size_raises_repro_error(self, payload_size):
        # 600 bytes leave no room for two entries on the 512-byte page
        with pytest.raises(ReproError):
            PATreeSession(fast(payload_size=payload_size))

    @pytest.mark.parametrize("builder", sorted(PERSISTENCE_BUILDERS))
    @pytest.mark.parametrize(
        "persistence,buffer_pages", [("wek", 64), ("weak", 0)]
    )
    def test_bad_persistence_config_is_refused(
        self, builder, persistence, buffer_pages
    ):
        # a misspelt mode, or weak persistence with no buffer to write back
        with pytest.raises(SchedulerError):
            PERSISTENCE_BUILDERS[builder](
                persistence=persistence, buffer_pages=buffer_pages
            )

    def test_config_is_immutable(self):
        with pytest.raises(Exception):
            SessionConfig().seed = 3


class TestConstruction:
    def test_config_object(self):
        with PATreeSession(fast(buffer_pages=64)) as session:
            assert session.config.scheduler == "naive"
            assert session.config.buffer_pages == 64

    def test_legacy_keyword_arguments_still_work(self):
        with PATreeSession(
            seed=3,
            scheduler="naive",
            buffer_pages=32,
            device_profile=fast_test_profile(),
        ) as session:
            assert session.config.seed == 3
            assert session.config.buffer_pages == 32

    def test_keywords_override_config_fields(self):
        with PATreeSession(fast(seed=1), seed=9) as session:
            assert session.config.seed == 9

    def test_unknown_keyword_raises_repro_error(self):
        with pytest.raises(ReproError):
            PATreeSession(fast(), qpair_depth=3)

    def test_bogus_config_object_raises_repro_error(self):
        with pytest.raises(ReproError):
            PATreeSession("strong")

    def test_per_session_defaults(self):
        assert PATreeSession.default_config.scheduler == "workload_aware"
        assert AsyncLsmSession.default_config.scheduler == "naive"
        assert ShardedSession.default_config.buffer_pages == 0


class TestLifecycle:
    def test_context_manager_closes(self):
        with PATreeSession(fast()) as session:
            session.put(1, payload(1))
        assert session.closed
        with pytest.raises(ReproError):
            session.get(1)

    def test_close_is_idempotent(self):
        session = PATreeSession(fast())
        session.close()
        session.close()
        assert session.closed

    def test_weak_close_flushes_the_dirty_tail(self):
        session = PATreeSession(
            fast(persistence="weak", buffer_pages=256, window=8)
        )
        session.bulk_load(
            (k, payload(k)) for k in range(1, 501)
        )
        session.update(5, payload(1))
        session.close()
        assert session.validate()["keys"] == 500

    def test_a_sync_spec_flushes_as_the_sync_verb_does(self):
        def weak_session():
            session = PATreeSession(
                fast(persistence="weak", buffer_pages=256, window=8)
            )
            session.bulk_load((k, payload(k)) for k in range(1, 501))
            return session

        with weak_session() as by_spec, weak_session() as by_verb:
            by_spec.execute([OpSpec.put(5, payload(1))])
            (synced,) = by_spec.execute([OpSpec.sync()])
            by_verb.put(5, payload(1))
            assert synced.error is None
            assert synced.value == by_verb.sync() > 0

    def test_no_session_code_touches_private_engine_state(self):
        # the facade goes through reset_source(); poking engine
        # internals is exactly what the public API redesign removed
        assert "._shutdown" not in inspect.getsource(repro.api)


class TestDictSugar:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: PATreeSession(fast()),
            lambda: ShardedSession(fast(shards=2)),
            lambda: AsyncLsmSession(fast()),
        ],
        ids=["patree", "sharded", "lsm"],
    )
    def test_mapping_protocol(self, factory):
        with factory() as session:
            session[42] = payload(42)
            assert 42 in session
            assert session[42] == payload(42)
            assert 43 not in session
            with pytest.raises(KeyError):
                session[43]


class TestStatsContract:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: PATreeSession(fast()),
            lambda: ShardedSession(fast(shards=2)),
            lambda: AsyncLsmSession(fast()),
        ],
        ids=["patree", "sharded", "lsm"],
    )
    def test_fresh_dict_and_cumulative_counters(self, factory):
        with factory() as session:
            session[1] = payload(1)
            first = session.stats()
            second = session.stats()
            # fresh dict per call: distinct objects, equal content
            assert first is not second
            assert first == second
            # mutating a snapshot never leaks into later calls
            first["completed"] = -1
            assert session.stats()["completed"] != -1
            # counters are cumulative across batches, not per batch
            session[2] = payload(2)
            third = session.stats()
            assert third["completed"] > second["completed"]


class TestSharedVerbs:
    def test_patree_session_end_to_end(self):
        with PATreeSession(fast(window=16)) as session:
            session.bulk_load((k, payload(k)) for k in range(1, 1_001))
            assert len(session) == 1_000
            assert session.get(7) == payload(7)
            assert session.get(5_000) is None
            assert session.put(5_000, payload(5_000)) is True
            assert session.update(5_000, payload(1)) is True
            assert session.delete(5_000) is True
            got = session.scan(10, 50)
            assert got == [(k, payload(k)) for k in range(10, 51)]
            session.validate()

    def test_sharded_session_end_to_end(self):
        config = fast(shards=4, window=16)
        with ShardedSession(config) as fleet:
            fleet.bulk_load((k, payload(k)) for k in range(1, 2_001))
            assert len(fleet) == 2_000
            assert fleet.get(9) == payload(9)
            fleet[9_999] = payload(9_999)
            assert fleet.delete(9_999) is True
            got = fleet.scan(100, 300)
            assert got == [(k, payload(k)) for k in range(100, 301)]
            stats = fleet.stats()
            assert stats["shards"] == 4
            assert stats["completed"] == sum(
                s["completed"] for s in stats["per_shard"]
            )
            fleet.validate()

    def test_sharded_session_range_partitioning(self):
        config = fast(shards=3, partitioning="range")
        with ShardedSession(config) as fleet:
            fleet.bulk_load((k, payload(k)) for k in range(1, 1_501))
            assert fleet.scan(1, 1_500) == [
                (k, payload(k)) for k in range(1, 1_501)
            ]

    def test_lsm_session_round_trip(self):
        with AsyncLsmSession(fast(memtable_entries=100)) as lsm:
            lsm.bulk_load([(k, payload(k)) for k in range(1, 201)])
            assert lsm.get(7) == payload(7)
            lsm.put(900, payload(900))
            assert lsm.get(900) == payload(900)

    def test_execute_accepts_iterators(self):
        from repro.core.ops import search_op

        with PATreeSession(fast()) as session:
            session.bulk_load((k, payload(k)) for k in range(1, 101))
            ops = session.execute(search_op(k) for k in (1, 2, 3))
            assert [op.result for op in ops] == [
                payload(1),
                payload(2),
                payload(3),
            ]
