"""Fig 7 (throughput) and Fig 8 (latency) — paradigm comparison.

PA-Tree (one working thread) versus the shared and dedicated
synchronous baselines with a sweep of worker-thread counts, on the
read-only, default (10 % update) and update-heavy (50 % update)
YCSB-style workloads.  Buffering is disabled in all approaches, as in
the paper's §V-A.
"""

from repro.bench.report import print_table
from repro.bench.runner import WorkloadSpec, run_pa, run_sync_baseline

TITLE = "Fig 7/8: throughput + latency vs threads"
OPS = 2_500

THREAD_SWEEP = (1, 8, 32, 128)
MIXES = ("read_only", "default", "update_heavy")

_CACHE = {}


def run(
    ops=OPS,
    seed=1,
    mixes=MIXES,
    threads=THREAD_SWEEP,
    n_keys=20_000,
):
    """All (mix, approach, threads) rows.  Memoized per configuration."""
    key = (ops, seed, tuple(mixes), tuple(threads), n_keys)
    if key in _CACHE:
        return _CACHE[key]
    rows = []
    for mix in mixes:
        spec = WorkloadSpec(kind="ycsb", n_keys=n_keys, n_ops=ops, mix=mix)
        pa = run_pa(spec, seed=seed)
        pa["mix"] = mix
        rows.append(pa)
        for io_mode in ("shared", "dedicated"):
            for n_threads in threads:
                row = run_sync_baseline(spec, io_mode, n_threads, seed=seed)
                row["mix"] = mix
                rows.append(row)
    _CACHE[key] = rows
    return rows


def best_baseline(rows, mix, approach):
    """The row of ``approach`` on ``mix`` with the highest throughput."""
    candidates = [
        row for row in rows if row["mix"] == mix and row["approach"] == approach
    ]
    return max(candidates, key=lambda row: row["throughput_ops"])


def render(rows, out=print):
    columns = [
        ("mix", "mix"),
        ("approach", "approach"),
        ("threads", "threads"),
        ("ops/s", "throughput_ops"),
        ("mean lat (us)", "mean_latency_us"),
        ("p99 lat (us)", "p99_latency_us"),
    ]
    print_table("Fig 7 + Fig 8: throughput / latency vs threads", columns, rows, out=out)
    for mix in MIXES:
        pa = [r for r in rows if r["mix"] == mix and r["approach"] == "pa-tree"]
        if not pa:
            continue
        best_shared = best_baseline(rows, mix, "shared")
        best_dedicated = best_baseline(rows, mix, "dedicated")
        out(
            "%s: PA %.0f ops/s vs best shared %.0f (x%.1f) vs best dedicated %.0f (x%.1f)"
            % (
                mix,
                pa[0]["throughput_ops"],
                best_shared["throughput_ops"],
                pa[0]["throughput_ops"] / max(best_shared["throughput_ops"], 1),
                best_dedicated["throughput_ops"],
                pa[0]["throughput_ops"] / max(best_dedicated["throughput_ops"], 1),
            )
        )
