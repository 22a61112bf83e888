"""Fig 14 — data buffering.

PA-Tree throughput and latency as the buffer size is swept, for the
strong-persistent (read-only buffer) and weak-persistent (read-write
buffer with group sync) variants.  Even a very small buffer helps a
lot — the root and upper inner nodes are touched by every operation —
and weak persistence adds write merging on top.
"""

from dataclasses import replace

from repro.bench.report import print_table
from repro.bench.runner import WorkloadSpec, run_pa

TITLE = "Fig 14: buffering"
OPS = 3_000

BUFFER_SWEEP = (0, 16, 64, 256, 1024, 4096)
SYNC_EVERY = 1000


def run(ops=OPS, seed=1):
    # update-heavy: the strong/weak gap is about write amplification,
    # so the workload must write enough for merging to matter
    spec = WorkloadSpec(kind="ycsb", n_keys=20_000, n_ops=ops, mix="update_heavy")
    rows = []
    for buffer_pages in BUFFER_SWEEP:
        row = run_pa(
            spec, seed=seed, persistence="strong", buffer_pages=buffer_pages
        )
        row["buffer_pages"] = buffer_pages
        row["persistence"] = "strong"
        rows.append(row)
        if buffer_pages > 0:
            row = run_pa(
                replace(spec, sync_every=SYNC_EVERY),
                seed=seed,
                persistence="weak",
                buffer_pages=buffer_pages,
            )
            row["buffer_pages"] = buffer_pages
            row["persistence"] = "weak"
            rows.append(row)
    return rows


def render(rows, out=print):
    columns = [
        ("buffer (pages)", "buffer_pages"),
        ("persistence", "persistence"),
        ("ops/s", "throughput_ops"),
        ("mean lat (us)", "mean_latency_us"),
        ("device writes", "device_writes"),
        ("device reads", "device_reads"),
    ]
    print_table("Fig 14: buffering (strong vs weak persistence)", columns, rows, out=out)
