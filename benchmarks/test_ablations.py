"""Ablations beyond the paper — the design choices DESIGN.md calls out.

* device internal parallelism (channel count) is the resource PA-Tree
  exploits: its advantage should scale with channels,
* the interface-contention model is what penalizes over-probing:
  with it disabled, fixed-rate cycle-0 probing stops losing IOPS,
* the in-flight window is PA's concurrency knob: throughput saturates
  with the device, latency grows linearly past that (Little's law),
* the probe model's slice resolution n: coarse features degrade the
  estimator and with it probe timing.
"""

from repro.bench.report import print_table
from repro.bench.runner import WorkloadSpec, run_pa, run_sync_baseline
from repro.nvme.device import i3_nvme_profile, optane_profile
from repro.sched.policies import FixedRateProbing
from repro.sched.probe_model import train_probe_model
from repro.sched.workload_aware import WorkloadAwareScheduling


def _spec(n_ops=2_000):
    return WorkloadSpec(kind="ycsb", n_keys=20_000, n_ops=n_ops, mix="default")


def test_ablation_channels(benchmark, record_report):
    out = record_report("ablation_channels")

    def run():
        rows = []
        for channels in (4, 16, 32, 64):
            profile = i3_nvme_profile(channels=channels)
            row = run_pa(
                _spec(), seed=2, scheduler="naive", device_profile=profile
            )
            row["channels"] = channels
            rows.append(row)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "Ablation: device channels",
        [("channels", "channels"), ("ops/s", "throughput_ops"), ("iops", "iops")],
        rows,
        out=out,
    )
    out.save()
    by_channels = {row["channels"]: row for row in rows}
    # PA's advantage comes from internal parallelism: more channels,
    # more throughput, with diminishing returns once CPU-bound
    assert by_channels[16]["throughput_ops"] > 2 * by_channels[4]["throughput_ops"]
    assert by_channels[32]["throughput_ops"] > 1.2 * by_channels[16]["throughput_ops"]


def test_ablation_interface_contention(benchmark, record_report):
    out = record_report("ablation_interface")

    def run():
        rows = []
        for label, probe_iface_us in (("contention", 2.0), ("no-contention", 0.0)):
            profile = i3_nvme_profile(probe_iface_ns=int(probe_iface_us * 1000))
            row = run_pa(
                _spec(),
                seed=2,
                policy=FixedRateProbing(0),  # probe continuously
                device_profile=profile,
            )
            row["variant"] = label
            rows.append(row)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "Ablation: interface contention under continuous probing",
        [("variant", "variant"), ("ops/s", "throughput_ops"), ("iops", "iops")],
        rows,
        out=out,
    )
    out.save()
    by_variant = {row["variant"]: row for row in rows}
    # the contention model is what makes cycle-0 probing expensive
    assert (
        by_variant["no-contention"]["throughput_ops"]
        > 1.15 * by_variant["contention"]["throughput_ops"]
    )


def test_ablation_inflight_window(benchmark, record_report):
    out = record_report("ablation_window")

    def run():
        rows = []
        for window in (4, 16, 64, 256):
            row = run_pa(_spec(), seed=2, window=window)
            row["window"] = window
            rows.append(row)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "Ablation: in-flight window",
        [
            ("window", "window"),
            ("ops/s", "throughput_ops"),
            ("mean lat (us)", "mean_latency_us"),
            ("outstanding", "outstanding_avg"),
        ],
        rows,
        out=out,
    )
    out.save()
    by_window = {row["window"]: row for row in rows}
    # small windows under-fill the device
    assert by_window[64]["throughput_ops"] > 2 * by_window[4]["throughput_ops"]
    # beyond saturation, extra window only adds queueing latency
    assert (
        by_window[256]["mean_latency_us"] > 2 * by_window[64]["mean_latency_us"]
    )
    assert (
        by_window[256]["throughput_ops"] < 1.3 * by_window[64]["throughput_ops"]
    )


def test_ablation_media_speed(benchmark, record_report):
    """Optane-class (~10 us) media vs the flash-class default: faster
    media shrinks the paradigm's queue-depth advantage but its CPU
    advantage remains — PA still beats the blocking baseline while the
    baseline's thread army burns multiple cores."""
    out = record_report("ablation_media_speed")

    def run():
        rows = []
        for label, profile in (
            ("flash (80us reads)", i3_nvme_profile()),
            ("optane (9us reads)", optane_profile()),
        ):
            spec = WorkloadSpec(kind="ycsb", n_keys=20_000, n_ops=2_000, mix="default")
            pa = run_pa(spec, seed=2, scheduler="naive", device_profile=profile)
            pa["media"] = label
            rows.append(pa)
            baseline = run_sync_baseline(
                spec, "dedicated", 32, seed=2, device_profile=profile,
                pause_mode="sleep", poll_pause_us=5,
            )
            baseline["media"] = label
            rows.append(baseline)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "Ablation: media speed (flash vs Optane-class)",
        [
            ("media", "media"),
            ("approach", "approach"),
            ("ops/s", "throughput_ops"),
            ("mean lat (us)", "mean_latency_us"),
            ("CPU (cores)", "cores_used"),
        ],
        rows,
        out=out,
    )
    out.save()

    def arm(media_prefix, approach):
        return next(
            r
            for r in rows
            if r["media"].startswith(media_prefix) and r["approach"] == approach
        )

    # PA wins on both media generations
    for media in ("flash", "optane"):
        assert (
            arm(media, "pa-tree")["throughput_ops"]
            > 1.5 * arm(media, "dedicated")["throughput_ops"]
        )
    # faster media raises everyone's absolute numbers
    assert (
        arm("optane", "pa-tree")["throughput_ops"]
        > arm("flash", "pa-tree")["throughput_ops"]
    )


def test_ablation_partitions(benchmark, record_report):
    """The paper's 'a few working threads' variant: range-partitioned
    PA-Trees scale near-linearly while CPU-bound, sharing nothing but
    the device (the router's shared-device placement)."""
    out = record_report("ablation_partitions")

    from repro.backend import make_backend
    from repro.shard import ShardedPaTree
    from repro.sim.engine import Engine
    from repro.sim.rng import RngRegistry
    from repro.simos.scheduler import SimOS, paper_testbed_profile
    from repro.workloads import YcsbWorkload

    def run_one(partitions, n_ops=3_000):
        engine = Engine(seed=4)
        simos = SimOS(engine, paper_testbed_profile())
        tree = ShardedPaTree(
            simos,
            partitions,
            partitioning="range",
            backend=make_backend(
                "sim", engine=engine, profile=i3_nvme_profile()
            ),
            buffer_pages_per_shard=4_096 // partitions,
        )
        workload = YcsbWorkload(
            20_000, n_ops, mix="default", rng=RngRegistry(4).stream("wl")
        )
        tree.bulk_load(workload.preload_items())
        start = engine.now
        tree.run_operations(list(workload.operations()), window=32 * partitions)
        elapsed_s = (engine.now - start) / 1e9
        tree.validate()
        return {
            "partitions": partitions,
            "throughput_ops": n_ops / elapsed_s,
            "cores_used": simos.total_busy_ns() / (engine.now - start),
        }

    def run():
        return [run_one(partitions) for partitions in (1, 2, 4)]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "Ablation: multi-worker partitioned PA-Tree",
        [
            ("partitions", "partitions"),
            ("ops/s", "throughput_ops"),
            ("CPU (cores)", "cores_used"),
        ],
        rows,
        out=out,
    )
    out.save()
    by_parts = {row["partitions"]: row for row in rows}
    # near-linear scaling while CPU-bound
    assert by_parts[2]["throughput_ops"] > 1.6 * by_parts[1]["throughput_ops"]
    assert by_parts[4]["throughput_ops"] > 2.5 * by_parts[1]["throughput_ops"]


def test_ablation_probe_model_resolution(benchmark, record_report):
    out = record_report("ablation_probe_slices")

    def run():
        rows = []
        for slices in (2, 20):
            model = train_probe_model(
                77, i3_nvme_profile(), duration_us=200_000, slices=slices
            )
            row = run_pa(
                _spec(),
                seed=2,
                policy=WorkloadAwareScheduling(model),
            )
            row["slices"] = slices
            rows.append(row)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "Ablation: probe-model slice resolution",
        [
            ("slices", "slices"),
            ("ops/s", "throughput_ops"),
            ("mean lat (us)", "mean_latency_us"),
            ("probes", "probes"),
        ],
        rows,
        out=out,
    )
    out.save()
    by_slices = {row["slices"]: row for row in rows}
    # the fine-grained model should be at least as good as the coarse one
    assert (
        by_slices[20]["throughput_ops"] >= 0.97 * by_slices[2]["throughput_ops"]
    )
