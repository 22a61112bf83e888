"""Batch-vs-single parity for the vectored operation pipeline.

The batch planner (``repro.core.batch``) must be observationally
equivalent to replaying the same specs one at a time: identical
per-spec results in input order, identical final tree state, intact
structural invariants — through leaf splits, merges and root
growth/shrink, across shards, and under injected media errors (where a
failing batch must surface a typed :class:`~repro.errors.BatchError`
naming the failing key without corrupting the rest of the tree).
"""

import pytest

from repro.api import (
    AsyncLsmSession,
    PATreeSession,
    ShardedSession,
)
from repro.baselines.io_service import DedicatedIoService
from repro.baselines.latching import BlockingLatchTable
from repro.baselines.runner import BaselineRunner
from repro.baselines.sync_tree import SyncTreeAccessor
from repro.core.ops import DELETE, GET, PUT, OpSpec, batch_op
from repro.core.tree import PaTree
from repro.errors import BatchError, IoError, ReproError, TreeError
from repro.faults import FaultConfig
from repro.nvme.device import NvmeDevice, fast_test_profile
from repro.nvme.driver import NvmeDriver
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.simos.scheduler import OsProfile, SimOS


def payload(key, size=8):
    return (key % 2 ** 64).to_bytes(size, "little")


def make_spec_stream(seed, n, keyspace=2_000, size=8):
    """Deterministic mixed stream: 45% put / 35% get / 20% delete."""
    rng = RngRegistry(seed).stream("parity")
    specs = []
    for _ in range(n):
        key = rng.randrange(1, keyspace)
        roll = rng.random()
        if roll < 0.45:
            specs.append(OpSpec.put(key, payload(key, size)))
        elif roll < 0.8:
            specs.append(OpSpec.get(key))
        else:
            specs.append(OpSpec.delete(key))
    return specs


def oracle_replay(specs, model):
    """Expected per-spec results of replaying ``specs`` on a dict."""
    expected = []
    for spec in specs:
        if spec.verb == PUT:
            expected.append(spec.key not in model)
            model[spec.key] = spec.payload
        elif spec.verb == GET:
            expected.append(model.get(spec.key))
        elif spec.verb == DELETE:
            expected.append(model.pop(spec.key, None) is not None)
    return expected


def run_batches(session, specs, batch_size):
    """Drive ``specs`` through the session in ``batch_size`` chunks."""
    results = []
    for start in range(0, len(specs), batch_size):
        chunk = specs[start:start + batch_size]
        op = batch_op(chunk)
        session.execute([op])
        assert op.error is None
        results.extend(op.result)
    return results


class TestDictOracleParity:
    def test_mixed_batches_match_dict_oracle(self):
        specs = make_spec_stream(seed=7, n=1_200)
        model = {}
        expected = oracle_replay(specs, model)
        with PATreeSession(seed=7) as session:
            results = run_batches(session, specs, batch_size=48)
            assert results == expected
            assert dict(session.tree.iterate_items_raw()) == model
            session.validate()

    def test_many_verbs_match_oracle(self):
        with PATreeSession(seed=3) as session:
            flags = session.put_many(
                (key, payload(key)) for key in range(1, 301)
            )
            assert flags == [True] * 300
            # re-putting half overwrites, not inserts
            flags = session.put_many(
                (key, payload(key + 1)) for key in range(1, 151)
            )
            assert flags == [False] * 150
            got = session.get_many([150, 151, 999])
            assert got == [payload(151), payload(151), None]
            dels = session.delete_many([150, 150, 999])
            # second delete of the same key in one batch sees it gone
            assert dels == [True, False, False]
            session.validate()

    def test_duplicate_keys_replay_in_input_order(self):
        with PATreeSession(seed=5) as session:
            op = batch_op(
                [
                    OpSpec.put(42, payload(1)),
                    OpSpec.get(42),
                    OpSpec.delete(42),
                    OpSpec.get(42),
                    OpSpec.put(42, payload(2)),
                ]
            )
            session.execute([op])
            assert op.result == [True, payload(1), True, None, True]
            assert session.get(42) == payload(2)


class TestStructuralStraddling:
    # payload 112 -> leaf capacity (512-32)//(8+112) = 4: every batch
    # of a few dozen keys straddles many splits/merges
    SIZE = 112

    def test_batches_through_splits_and_merges(self):
        with PATreeSession(seed=11, payload_size=self.SIZE) as session:
            keys = list(range(1, 241))
            flags = session.put_many((k, payload(k, self.SIZE)) for k in keys)
            assert flags == [True] * len(keys)
            stats = session.validate()
            assert stats["levels"] >= 3  # one batch grew a multi-level tree
            assert dict(session.tree.iterate_items_raw()) == {
                k: payload(k, self.SIZE) for k in keys
            }

            # delete in interleaved batches to force merges and borrows
            dels = session.delete_many(keys[::2])
            assert dels == [True] * len(keys[::2])
            session.validate()
            dels = session.delete_many(keys)
            assert dels == [k % 2 == 0 for k in keys]
            assert len(session) == 0
            stats = session.validate()
            assert stats["levels"] == 1  # root shrank back to one leaf

    def test_mixed_stream_small_leaves_matches_oracle(self):
        specs = make_spec_stream(seed=13, n=600, keyspace=300, size=self.SIZE)
        model = {}
        expected = oracle_replay(specs, model)
        with PATreeSession(seed=13, payload_size=self.SIZE) as session:
            results = run_batches(session, specs, batch_size=32)
            assert results == expected
            assert dict(session.tree.iterate_items_raw()) == model
            session.validate()


class TestSyncTreeOracle:
    def test_batch_results_match_sync_tree_replay(self):
        specs = make_spec_stream(seed=17, n=500)
        preload = [(k, payload(k)) for k in range(10, 1_000, 10)]

        with PATreeSession(seed=17) as session:
            session.bulk_load(preload)
            batched = run_batches(session, specs, batch_size=64)
            batched_items = dict(session.tree.iterate_items_raw())
            session.validate()

        # the same batches under the plan's second interpreter: a
        # disagreement here with the dict tests green is an interpreter
        # bug, not a plan bug
        engine = Engine(seed=17)
        simos = SimOS(engine, OsProfile(cores=8))
        device = NvmeDevice(engine, fast_test_profile())
        tree = PaTree.create(device)
        tree.bulk_load(preload)
        latches = BlockingLatchTable()
        accessor = SyncTreeAccessor(
            tree, DedicatedIoService(NvmeDriver(device)), latches
        )
        ops = [
            batch_op(specs[start:start + 64]) for start in range(0, len(specs), 64)
        ]
        BaselineRunner(simos, accessor, ops, n_threads=1).run_to_completion()
        latches.assert_quiescent()

        assert batched == [result for op in ops for result in op.result]
        assert batched_items == dict(tree.iterate_items_raw())


class TestShardedParity:
    def test_batch_fans_out_and_merges_in_input_order(self):
        specs = make_spec_stream(seed=23, n=800)
        model = {}
        expected = oracle_replay(specs, model)
        with ShardedSession(seed=23, shards=4) as session:
            results = run_batches(session, specs, batch_size=64)
            assert results == expected
            session.validate()
            got = session.get_many(sorted(model))
            assert got == [model[k] for k in sorted(model)]

    def test_single_shard_batch_stays_whole(self):
        with ShardedSession(seed=2, shards=4, partitioning="range") as session:
            session.bulk_load((k, payload(k)) for k in range(1, 2_001))
            # range partitioning: a tight key cluster lands on one shard
            got = session.get_many(list(range(100, 140)))
            assert got == [payload(k) for k in range(100, 140)]
            stats = session.stats()
            assert stats["user_completed"] >= 1


class TestLsmBatchVerbs:
    def test_lsm_many_verbs_roundtrip(self):
        with AsyncLsmSession(seed=29) as session:
            flags = session.put_many((k, payload(k)) for k in range(1, 201))
            assert flags == [True] * 200
            got = session.get_many([1, 100, 200, 999])
            assert got == [payload(1), payload(100), payload(200), None]
            session.delete_many([100, 999])
            assert session.get_many([100, 101]) == [None, payload(101)]


class TestDeterminism:
    def test_same_seed_same_results_and_virtual_time(self):
        def run():
            specs = make_spec_stream(seed=31, n=400)
            with PATreeSession(seed=31) as session:
                results = run_batches(session, specs, batch_size=64)
                stats = session.stats()
            return results, stats["virtual_time_us"], stats["batch_groups"]

        assert run() == run()


def _leaf_lba_for(key, preload, seed):
    """The on-media LBA of the leaf holding ``key`` (deterministic)."""
    probe = PATreeSession(seed=seed, buffer_pages=0)
    probe.bulk_load(preload)
    tree = probe.tree
    node = tree.read_node_raw(tree.meta.root_page)
    while not node.is_leaf:
        node = tree.read_node_raw(node.child_for(key))
    return node.page_id


class TestBatchFaults:
    PRELOAD = [(k, payload(k)) for k in range(1, 211)]

    def _poisoned_session(self, seed=41):
        lba = _leaf_lba_for(50, self.PRELOAD, seed)
        session = PATreeSession(
            seed=seed, buffer_pages=0, faults=FaultConfig(poison_lbas=(lba,))
        )
        session.bulk_load(self.PRELOAD)
        return session, lba

    def test_media_error_mid_batch_names_the_failing_key(self):
        session, _lba = self._poisoned_session()
        keys = [10, 50, 150]  # three distinct leaf groups; 50 is poisoned
        with pytest.raises(BatchError) as excinfo:
            session.get_many(keys)
        error = excinfo.value
        assert isinstance(error, IoError)
        assert error.key == 50
        assert error.index == keys.index(50)
        assert error.__cause__ is not None
        assert "get(key=50)" in str(error)

        # the rest of the tree is intact and the session stays usable
        assert session.get_many([10, 150]) == [payload(10), payload(150)]
        session.validate()

    def test_single_op_error_stays_plain_io_error(self):
        session, _lba = self._poisoned_session()
        with pytest.raises(IoError) as excinfo:
            session.get(50)
        assert not isinstance(excinfo.value, BatchError)
        # single-op callers keep the untranslated device failure
        assert session.get(10) == payload(10)


class TestExecuteContract:
    def test_spec_lists_return_op_results(self):
        with PATreeSession(seed=1) as session:
            results = session.execute(
                [OpSpec.put(9, payload(9)), OpSpec.get(9), OpSpec.scan(1, 20)]
            )
            assert [r.verb for r in results] == ["put", "get", "scan"]
            assert results[0].value is True
            assert results[1].value == payload(9)
            assert results[2].value == [(9, payload(9))]
            assert all(r.ok and r.error is None for r in results)

    def test_mixed_spec_and_operation_inputs_raise(self):
        with PATreeSession(seed=1) as session:
            with pytest.raises(ReproError):
                session.execute([OpSpec.get(1), batch_op([OpSpec.get(2)])])

    def test_unbatchable_verb_rejected(self):
        with pytest.raises(TreeError):
            batch_op([OpSpec.scan(1, 10)])
        with pytest.raises(TreeError):
            batch_op([OpSpec.update(1, payload(1))])

    def test_empty_batches_are_no_ops(self):
        with PATreeSession(seed=1) as session:
            assert session.put_many([]) == []
            assert session.get_many([]) == []
            assert session.delete_many([]) == []
