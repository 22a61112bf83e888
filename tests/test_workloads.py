"""Unit tests for the workload generators."""

import hashlib
import struct

import pytest

from repro.core.keys import order_key_decode
from repro.core.ops import DELETE, INSERT, RANGE, SEARCH, UPDATE
from repro.errors import WorkloadError
from repro.sim.rng import RngRegistry
from repro.workloads.sse import SseWorkload
from repro.workloads.tdrive import TDriveWorkload, SEQ_BITS
from repro.workloads.ycsb import (
    MIX_DEFAULT,
    MIX_READ_ONLY,
    MIX_UPDATE_HEAVY,
    YcsbWorkload,
)
from repro.workloads.zipf import ZipfSampler, scatter_rank


def rng(seed=1, name="wl"):
    return RngRegistry(seed).stream(name)


class TestZipf:
    def test_uniform_when_alpha_zero(self):
        sampler = ZipfSampler(1000, 0.0, rng())
        draws = sampler.sample_many(5_000)
        low_half = sum(1 for d in draws if d < 500)
        assert 0.44 < low_half / len(draws) < 0.56

    def test_skew_concentrates_low_ranks(self):
        sampler = ZipfSampler(1000, 1.2, rng())
        draws = sampler.sample_many(5_000)
        top_decile = sum(1 for d in draws if d < 100)
        assert top_decile / len(draws) > 0.5

    def test_draws_in_range(self):
        sampler = ZipfSampler(50, 0.9, rng())
        assert all(0 <= d < 50 for d in sampler.sample_many(1_000))

    def test_deterministic_given_seed(self):
        a = ZipfSampler(100, 0.5, rng(7)).sample_many(100)
        b = ZipfSampler(100, 0.5, rng(7)).sample_many(100)
        assert a == b

    def test_cdf_bytes_are_pinned(self):
        # the YCSB key CDF: float64 little-endian, the same on every CPython
        cdf = ZipfSampler(20_000, 0.3, rng())._cdf
        packed = struct.pack("<%dd" % len(cdf), *cdf)
        assert hashlib.sha256(packed).hexdigest() == (
            "3b7583a152f529d0157f3e474971bbd24f5a37404544d071014a7d4f9b85682e"
        )

    def test_ranks_agree_with_numpy_searchsorted(self):
        np = pytest.importorskip("numpy")
        sampler = ZipfSampler(20_000, 0.3, rng(4))
        source = rng(4)  # the sampler's stream, drawn again
        draws = [source.random() for _ in range(10_000)]
        expected = np.searchsorted(np.array(sampler._cdf), draws, side="left")
        assert sampler.sample_many(10_000) == expected.tolist()

    def test_scatter_rank_bijective(self):
        n = 997
        assert sorted(scatter_rank(r, n) for r in range(n)) == list(range(n))

    def test_validation(self):
        with pytest.raises(WorkloadError):
            ZipfSampler(0, 0.5, rng())
        with pytest.raises(WorkloadError):
            ZipfSampler(10, -1, rng())


class TestYcsb:
    def test_preload_sorted_unique(self):
        workload = YcsbWorkload(1_000, 100, mix=MIX_DEFAULT, rng=rng())
        items = workload.preload_items()
        keys = [k for k, _v in items]
        assert keys == sorted(set(keys))
        assert len(items) == 1_000

    def test_mix_ratios(self):
        for mix, expected in (
            (MIX_READ_ONLY, 0.0),
            (MIX_DEFAULT, 0.10),
            (MIX_UPDATE_HEAVY, 0.50),
        ):
            workload = YcsbWorkload(1_000, 4_000, mix=mix, rng=rng())
            ops = list(workload.operations())
            updates = sum(1 for op in ops if op.kind == UPDATE)
            assert abs(updates / len(ops) - expected) < 0.04

    def test_updates_target_preloaded_keys(self):
        workload = YcsbWorkload(500, 500, mix=MIX_UPDATE_HEAVY, rng=rng())
        preloaded = {k for k, _v in workload.preload_items()}
        for op in workload.operations():
            if op.kind in (UPDATE, SEARCH):
                assert op.key in preloaded

    def test_insert_ratio_produces_fresh_keys(self):
        workload = YcsbWorkload(
            500, 2_000, mix=MIX_UPDATE_HEAVY, rng=rng(), insert_ratio=0.5
        )
        preloaded = {k for k, _v in workload.preload_items()}
        inserts = [op for op in workload.operations() if op.kind == INSERT]
        assert inserts
        assert all(op.key not in preloaded for op in inserts)

    def test_payload_size_respected(self):
        workload = YcsbWorkload(
            100, 200, mix=MIX_UPDATE_HEAVY, rng=rng(), payload_size=64
        )
        for op in workload.operations():
            if op.payload is not None:
                assert len(op.payload) == 64

    def test_unknown_mix_rejected(self):
        with pytest.raises(WorkloadError):
            YcsbWorkload(10, 10, mix="bogus", rng=rng())

    def test_rng_required(self):
        with pytest.raises(WorkloadError):
            YcsbWorkload(10, 10)


class TestTDrive:
    def test_update_ratio(self):
        workload = TDriveWorkload(50, 1_000, 3_000, rng())
        workload.preload_items()
        ops = list(workload.operations())
        inserts = sum(1 for op in ops if op.kind == INSERT)
        ranges = sum(1 for op in ops if op.kind == RANGE)
        assert inserts + ranges == len(ops)
        assert abs(inserts / len(ops) - 0.70) < 0.04

    def test_preload_sorted_unique(self):
        workload = TDriveWorkload(20, 2_000, 0, rng())
        items = workload.preload_items()
        keys = [k for k, _v in items]
        assert keys == sorted(set(keys))

    def test_keys_unique_across_stream(self):
        workload = TDriveWorkload(20, 500, 2_000, rng())
        seen = {k for k, _v in workload.preload_items()}
        for op in workload.operations():
            if op.kind == INSERT:
                assert op.key not in seen
                seen.add(op.key)

    def test_range_queries_nonempty_bounds(self):
        workload = TDriveWorkload(20, 100, 500, rng())
        workload.preload_items()
        for op in workload.operations():
            if op.kind == RANGE:
                assert op.key <= op.high_key
                # z-range spans at least one sequence block
                assert op.high_key - op.key >= (1 << SEQ_BITS) - 1


class TestSse:
    def test_update_ratio_and_kinds(self):
        workload = SseWorkload(50, 2_000, 4_000, rng())
        workload.preload_items()
        ops = list(workload.operations())
        updates = sum(1 for op in ops if op.kind in (INSERT, DELETE))
        assert abs(updates / len(ops) - 0.28) < 0.04
        assert all(op.kind in (INSERT, DELETE, RANGE) for op in ops)

    def test_deletes_target_live_orders(self):
        workload = SseWorkload(10, 500, 2_000, rng())
        live = {k for k, _v in workload.preload_items()}
        for op in workload.operations():
            if op.kind == INSERT:
                live.add(op.key)
            elif op.kind == DELETE:
                assert op.key in live
                live.discard(op.key)

    def test_range_queries_single_stock(self):
        workload = SseWorkload(10, 100, 1_000, rng())
        workload.preload_items()
        for op in workload.operations():
            if op.kind == RANGE:
                stock_low, _p, _s = order_key_decode(op.key)
                stock_high, _p, _s = order_key_decode(op.high_key)
                assert stock_low == stock_high

    def test_payload_size(self):
        workload = SseWorkload(5, 50, 200, rng(), payload_size=100)
        for _k, value in workload.preload_items():
            assert len(value) == 100


class TestYcsbScanMix:
    def test_range_ratio_produces_scans(self):
        workload = YcsbWorkload(
            500, 2_000, mix=MIX_DEFAULT, rng=rng(), range_ratio=0.2, range_span=10
        )
        workload.preload_items()
        ops = list(workload.operations())
        ranges = [op for op in ops if op.kind == RANGE]
        assert 0.1 < len(ranges) / len(ops) < 0.3
        for op in ranges:
            assert op.high_key > op.key
            assert op.limit == 10

    def test_range_ratio_validation(self):
        with pytest.raises(WorkloadError):
            YcsbWorkload(10, 10, mix=MIX_DEFAULT, rng=rng(), range_ratio=2.0)
