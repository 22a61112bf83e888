"""Fig 12 — prioritized execution vs key skewness.

With and without the priority queue (write-latch holders first, then
admission order), on an update-heavy workload whose Zipf skew is swept
upwards.  Higher skew concentrates exclusive latches on hot leaves, so
releasing write latches sooner matters more — the performance margin
should grow with skew.
"""

from repro.bench.report import print_table
from repro.bench.runner import WorkloadSpec, run_pa
from repro.backend import i3_nvme_profile
from repro.sched.probe_model import cached_probe_model
from repro.sched.workload_aware import WorkloadAwareScheduling

TITLE = "Fig 12: prioritized execution vs skew"
OPS = 3_000

ALPHA_SWEEP = (0.3, 0.6, 0.9)

# The effect of prioritized execution shows when the ready set is deep
# (buffered, CPU-bound operation mix) and exclusive latches are held
# across write I/O on hot leaves -- the paper's contended regime.
WINDOW = 128
BUFFER_PAGES = 4_096


def run(ops=OPS, seed=1):
    model = cached_probe_model(i3_nvme_profile())
    rows = []
    for alpha in ALPHA_SWEEP:
        spec = WorkloadSpec(
            kind="ycsb", n_keys=20_000, n_ops=ops, mix="update_heavy", alpha=alpha
        )
        for prioritized in (True, False):
            row = run_pa(
                spec,
                seed=seed,
                policy=WorkloadAwareScheduling(model, prioritized=prioritized),
                window=WINDOW,
                buffer_pages=BUFFER_PAGES,
            )
            row["alpha"] = alpha
            row["prioritized"] = "yes" if prioritized else "no"
            rows.append(row)
    return rows


def render(rows, out=print):
    columns = [
        ("alpha", "alpha"),
        ("prioritized", "prioritized"),
        ("ops/s", "throughput_ops"),
        ("mean lat (us)", "mean_latency_us"),
        ("p99 lat (us)", "p99_latency_us"),
        ("latch waits", "latch_waits"),
    ]
    print_table("Fig 12: prioritized execution vs skew", columns, rows, out=out)
