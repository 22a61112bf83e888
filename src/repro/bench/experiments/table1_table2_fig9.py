"""Table I (runtime statistics), Table II (CPU cycles per operation)
and Fig 9 (CPU consumption breakdown).

One run each of PA-Tree, shared@32 and dedicated@32 threads on the
default workload supplies all three exhibits — the same measurement
protocol as the paper (baselines measured at their best thread count,
32).
"""

from repro.bench.report import print_table
from repro.bench.runner import WorkloadSpec, run_pa, run_sync_baseline
from repro.sim.metrics import CPU_CATEGORIES

TITLE = "Table I / Table II / Fig 9: one measured trio, three views"
OPS = 3_000

BASELINE_THREADS = 32

# CPU cycles per op at the paper's 2.3 GHz testbed clock.
CYCLES_PER_US = 2_300

_CACHE = {}


def run(ops=OPS, seed=1):
    """The four measured rows.  Memoized: three exhibits share them."""
    key = (ops, seed)
    if key in _CACHE:
        return _CACHE[key]
    spec = WorkloadSpec(kind="ycsb", n_keys=20_000, n_ops=ops, mix="default")
    rows = [
        run_sync_baseline(spec, "shared", BASELINE_THREADS, seed=seed),
        run_sync_baseline(spec, "dedicated", BASELINE_THREADS, seed=seed),
        run_sync_baseline(
            spec,
            "dedicated",
            BASELINE_THREADS,
            seed=seed,
            pause_mode="sleep",
            poll_pause_us=100,  # the paper's stated inter-probe pause
        ),
        run_pa(spec, seed=seed),
    ]
    rows[2]["approach"] = "dedicated(sleep)"
    for row in rows:
        row["kiops"] = row["iops"] / 1000.0
        row["kcycles"] = row["cpu_us_per_op"] * CYCLES_PER_US / 1000.0
    _CACHE[key] = rows
    return rows


def render_table1(rows, out=print):
    columns = [
        ("method", "approach"),
        ("outstanding I/Os", "outstanding_avg"),
        ("IOPS (10^3)", "kiops"),
        ("CPU consumption", "cores_used"),
        ("context switches", "context_switches"),
    ]
    print_table("Table I: runtime statistics", columns, rows, out=out)


def render_table2(rows, out=print):
    columns = [("method", "approach"), ("CPU cycles (10^3) / op", "kcycles")]
    print_table("Table II: CPU cycles per operation", columns, rows, out=out)


def render_fig9(rows, out=print):
    columns = [("method", "approach")] + [
        (name, name) for name in CPU_CATEGORIES
    ]
    display = []
    for row in rows:
        entry = {"approach": row["approach"]}
        for name in CPU_CATEGORIES:
            entry[name] = row["cpu_breakdown"][name]
        display.append(entry)
    print_table("Fig 9: CPU breakdown (fraction of CPU cycles)", columns, display, out=out)
