"""Quick integration tests over the experiment modules themselves.

These run each paper-exhibit module at a very small scale so the
benchmark code paths (sweeps, memoization, reporting, shape helpers)
are exercised by ``pytest tests/`` without the full benchmark cost.
"""

import tempfile

from repro.backend import set_default_backend
from repro.bench.experiments import (
    batch_pipeline, fig3_device, fig7_fig8, fig15_end_to_end, shards_scaling,
)
from repro.bench.runner import WorkloadSpec, run_pa


class TestFig3Quick:
    def test_single_point(self):
        point = fig3_device.run_fixed_qd(8, 0.5, duration_us=5_000)
        assert point["completed"] > 0
        assert point["iops"] > 0
        assert point["mean_latency_us"] > 0

    def test_small_sweep_monotone(self):
        qds, iops_series, _lat = fig3_device.run_fig3a_b(
            qd_sweep=(1, 8), write_rates=(0.0,), duration_us=5_000
        )
        reads = iops_series["write=0%"]
        assert reads[1] > 3 * reads[0]

    def test_fig3c_small(self):
        cycles, iops, latency = fig3_device.run_fig3c(
            probe_cycles_us=(5, 100), duration_us=5_000
        )
        assert len(iops["iops"]) == 2
        assert latency["latency_us"][1] > latency["latency_us"][0]


class TestFig7Quick:
    def test_tiny_grid_memoized(self):
        rows = fig7_fig8.run(150, mixes=("default",), threads=(1,), n_keys=2_000)
        again = fig7_fig8.run(150, mixes=("default",), threads=(1,), n_keys=2_000)
        assert rows is again  # memoized
        approaches = {row["approach"] for row in rows}
        assert approaches == {"pa-tree", "shared", "dedicated"}
        pa = next(r for r in rows if r["approach"] == "pa-tree")
        assert pa["throughput_ops"] > 0

    def test_best_baseline_helper(self):
        rows = fig7_fig8.run(150, mixes=("default",), threads=(1,), n_keys=2_000)
        best = fig7_fig8.best_baseline(rows, "default", "shared")
        assert best["approach"] == "shared"

    def test_report_renders(self):
        rows = fig7_fig8.run(150, mixes=("default",), threads=(1,), n_keys=2_000)
        lines = []
        fig7_fig8.render(rows, lines.append)
        assert any("pa-tree" in str(line) for line in lines)


class TestRunPaVariants:
    def test_naive_vs_aware_same_results(self):
        spec = WorkloadSpec(kind="ycsb", n_keys=2_000, n_ops=200, mix="default")
        naive = run_pa(spec, seed=5, scheduler="naive")
        aware = run_pa(spec, seed=5, scheduler="workload_aware")
        assert naive["completed"] == aware["completed"] == 200

    def test_deterministic_given_seed(self):
        spec = WorkloadSpec(kind="ycsb", n_keys=2_000, n_ops=200, mix="default")
        a = run_pa(spec, seed=9, scheduler="naive")
        b = run_pa(spec, seed=9, scheduler="naive")
        assert a["throughput_ops"] == b["throughput_ops"]
        assert a["mean_latency_us"] == b["mean_latency_us"]
        assert a["device_reads"] == b["device_reads"]

    def test_different_seeds_differ(self):
        spec = WorkloadSpec(kind="ycsb", n_keys=2_000, n_ops=200, mix="default")
        a = run_pa(spec, seed=9, scheduler="naive")
        b = run_pa(spec, seed=10, scheduler="naive")
        assert a["mean_latency_us"] != b["mean_latency_us"]


def test_exhibits_on_the_file_backend_leave_no_scratch_files(
    tmp_path, monkeypatch,
):
    # under --backend file every machine owns a scratch file that only
    # closing it removes: one tiny sweep point of each exhibit that
    # builds machines of its own
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    previous = set_default_backend("file")
    try:
        batch_pipeline.run_batch_size(8, n_specs=16)
        spec = WorkloadSpec(kind="ycsb", n_keys=2_000, n_ops=20)
        fig15_end_to_end.run_pa_arm(spec, "strong")
        for kind in ("blink", "lcb"):
            fig15_end_to_end.run_tree_baseline(spec, kind, "strong", 4)
        fig15_end_to_end.run_lsm_baseline(spec, "strong", 4)
        shards_scaling.run_shards(2, "default", base_ops=10)
    finally:
        set_default_backend(previous)
    assert sorted(tmp_path.glob("patree-file-backend-*")) == []
