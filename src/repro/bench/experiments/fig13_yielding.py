"""Fig 13 — CPU yielding vs input rate.

Open-loop Poisson arrivals at a swept rate; PA-Tree with and without
adaptive CPU yielding.  Without yielding the working thread spins in
its main loop even when idle, so CPU consumption stays high at low
input rates; with yielding it sleeps whenever the ready set is empty
and the model predicts no imminent completion — large CPU savings at
low load with no throughput penalty.
"""

from repro.bench.report import print_table
from repro.bench.runner import WorkloadSpec, run_pa
from repro.backend import i3_nvme_profile
from repro.sched.probe_model import cached_probe_model
from repro.sched.workload_aware import WorkloadAwareScheduling

TITLE = "Fig 13: CPU yielding vs input rate"
OPS = 1_500

RATE_SWEEP = (10_000, 25_000, 50_000, 75_000)


def run(ops=OPS, seed=1):
    model = cached_probe_model(i3_nvme_profile())
    rows = []
    for rate in RATE_SWEEP:
        spec = WorkloadSpec(kind="ycsb", n_keys=20_000, n_ops=ops, mix="default")
        for cpu_yield in (True, False):
            row = run_pa(
                spec,
                seed=seed,
                policy=WorkloadAwareScheduling(model, cpu_yield=cpu_yield),
                open_loop_rate=rate,
            )
            row["rate"] = rate
            row["yielding"] = "yes" if cpu_yield else "no"
            rows.append(row)
    return rows


def render(rows, out=print):
    columns = [
        ("input rate (ops/s)", "rate"),
        ("yielding", "yielding"),
        ("CPU (cores)", "cores_used"),
        ("achieved ops/s", "throughput_ops"),
        ("mean lat (us)", "mean_latency_us"),
    ]
    print_table("Fig 13: CPU yielding vs input rate", columns, rows, out=out)
