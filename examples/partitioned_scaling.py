#!/usr/bin/env python
"""Scaling PA-Tree to multiple working threads (the paper's "one or a
few working threads").

A single polled-mode working thread saturates the NVMe device on
unbuffered workloads, so the paper runs one.  Once a buffer absorbs
most I/O, however, the single thread becomes CPU-bound — and the
paradigm scales by *partitioning*, not by locking: the key space is
range-split across independent PA-Trees, each with its own working
thread, latch table and queue pair, sharing nothing but the device —
``ShardedPaTree`` handed one built backend instead of a backend spec.

This example measures that crossover: buffered YCSB throughput with
1, 2 and 4 partitions.

Run:  python examples/partitioned_scaling.py
"""

from repro.backend import i3_nvme_profile, make_backend
from repro.bench.report import print_table
from repro.shard import ShardedPaTree
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.simos.scheduler import SimOS, paper_testbed_profile
from repro.workloads import YcsbWorkload


def run_config(partitions, n_ops=4_000, buffer_total=4_096):
    engine = Engine(seed=4)
    simos = SimOS(engine, paper_testbed_profile())
    # one built backend = one device all the shards share, each on its
    # own LBA region with its own queue pair
    backend = make_backend("sim", engine=engine, profile=i3_nvme_profile())
    tree = ShardedPaTree(
        simos,
        partitions,
        partitioning="range",
        backend=backend,
        buffer_pages_per_shard=buffer_total // partitions,
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
        "iops": backend.total_completed / elapsed_s,
        "ctx_switches": simos.context_switches.value,
    }


def main():
    rows = []
    for partitions in (1, 2, 4):
        print("running %d partition(s) ..." % partitions)
        rows.append(run_config(partitions))
    print_table(
        "Partitioned PA-Tree scaling (buffered YCSB default mix)",
        [
            ("partitions", "partitions"),
            ("ops/s", "throughput_ops"),
            ("CPU (cores)", "cores_used"),
            ("device IOPS", "iops"),
            ("ctx switches", "ctx_switches"),
        ],
        rows,
    )
    base = rows[0]["throughput_ops"]
    print(
        "Scaling: 1x -> %.1fx -> %.1fx; still zero inter-thread"
        " synchronization (partitions share only the device; context"
        " switches stay ~0 because each worker owns a core)."
        % (rows[1]["throughput_ops"] / base, rows[2]["throughput_ops"] / base)
    )


if __name__ == "__main__":
    main()
