"""Scale-out — sharded multi-device PA-Tree throughput scaling.

The paper saturates one NVMe SSD with one polled working thread; this
exhibit scales the paradigm out with :class:`repro.shard.ShardedPaTree`:
hash-partitioned shards, each an independent (device, driver, tree,
worker) stack on the shared simulated OS.  A weak-scaling sweep holds
the per-shard load constant (operations and the closed-loop admission
window both grow with the shard count), so with shared-nothing shards
aggregate virtual-time throughput should grow near-linearly until the
8-core testbed runs out of cores for polled workers.

Two YCSB arms: ``read_only`` (pure device-bound scaling) and the
``default`` mixed workload (adds latching and write traffic).
"""

from repro.bench.report import print_table
from repro.shard import ShardedPaTree
from repro.sim.clock import NS_PER_SEC
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.simos.scheduler import SimOS, paper_testbed_profile
from repro.workloads import YcsbWorkload

TITLE = "Scale-out: sharded multi-device PA-Tree"

#: Operations *per shard* (weak scaling: a point runs ops x shards).
OPS = 1_500

SHARD_SWEEP = (1, 2, 4, 8)
MIXES = ("read_only", "default")

# Per-shard closed-loop window: deep enough to keep one device's
# channels busy, scaled with the shard count so per-shard load is
# constant across the sweep (weak scaling).
WINDOW_PER_SHARD = 32


def run_shards(n_shards, mix, base_ops=OPS, seed=1):
    """One sweep point: ``n_shards`` hash shards, ``base_ops`` ops per
    shard, over 20 000 keys at Zipf alpha 0.3."""
    engine = Engine(seed=seed)
    simos = SimOS(engine, paper_testbed_profile())
    sharded = ShardedPaTree(simos, n_shards)
    rng = RngRegistry(seed).stream("workload")
    workload = YcsbWorkload(20_000, base_ops * n_shards, mix=mix, alpha=0.3, rng=rng)
    try:
        sharded.bulk_load(workload.preload_items())
        sharded.run_operations(
            workload.operations(), window=WINDOW_PER_SHARD * n_shards
        )
        sharded.validate()
        stats = sharded.stats()
    finally:
        sharded.close()
    elapsed_ns = sharded.last_user_done_ns or engine.now
    elapsed_s = elapsed_ns / NS_PER_SEC if elapsed_ns else 1.0
    shard_tput = [
        s["completed"] / elapsed_s for s in stats["per_shard"]
    ]
    return {
        "mix": mix,
        "shards": n_shards,
        "partitioning": sharded.partitioning,
        "ops": base_ops * n_shards,
        "window": WINDOW_PER_SHARD * n_shards,
        "elapsed_s": elapsed_s,
        "throughput_ops": sharded.user_completed / elapsed_s,
        "mean_latency_us": stats["mean_latency_us"],
        "p99_latency_us": stats["p99_latency_us"],
        "completed": stats["completed"],
        "user_completed": stats["user_completed"],
        "device_reads": stats["device_reads"],
        "device_writes": stats["device_writes"],
        "probes": stats["probes"],
        "latch_waits": stats["latch_waits"],
        "min_shard_tput": min(shard_tput),
        "max_shard_tput": max(shard_tput),
    }


def run(ops=OPS, seed=1):
    rows = []
    for mix in MIXES:
        base = None
        for n_shards in SHARD_SWEEP:
            row = run_shards(n_shards, mix, base_ops=ops, seed=seed)
            if base is None:
                base = row["throughput_ops"] or 1.0
            row["speedup"] = row["throughput_ops"] / base
            rows.append(row)
    return rows


def render(rows, out=print):
    columns = [
        ("mix", "mix"),
        ("shards", "shards"),
        ("ops", "ops"),
        ("agg ops/s", "throughput_ops"),
        ("speedup", "speedup"),
        ("mean lat (us)", "mean_latency_us"),
        ("p99 lat (us)", "p99_latency_us"),
        ("dev reads", "device_reads"),
        ("dev writes", "device_writes"),
    ]
    print_table(
        "Scale-out: sharded multi-device PA-Tree (YCSB)", columns, rows, out=out
    )
