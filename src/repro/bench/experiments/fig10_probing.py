"""Fig 10 — probing strategies.

Workload-aware (model-gated) probing versus (i) probing every
``avg(t)`` microseconds where ``avg(t)`` is the rolling mean I/O
completion latency, and (ii) fixed-rate probing with the cycle swept
from 0 to 200 us.  Default workload, no buffer, so every operation
exercises the probe path heavily.
"""

from repro.bench.report import print_table
from repro.bench.runner import WorkloadSpec, run_pa
from repro.backend import i3_nvme_profile
from repro.sched.policies import AvgLatencyProbing, FixedRateProbing
from repro.sched.probe_model import cached_probe_model
from repro.sched.workload_aware import WorkloadAwareScheduling

TITLE = "Fig 10: probing strategies"
OPS = 3_000

FIXED_CYCLES_US = (0, 1, 5, 10, 20, 50, 100, 200)


def run(ops=OPS, seed=1):
    spec = WorkloadSpec(kind="ycsb", n_keys=20_000, n_ops=ops, mix="default")
    rows = []

    model = cached_probe_model(i3_nvme_profile())
    row = run_pa(spec, seed=seed, policy=WorkloadAwareScheduling(model))
    row["strategy"] = "workload-aware"
    rows.append(row)

    row = run_pa(spec, seed=seed, policy=AvgLatencyProbing())
    row["strategy"] = "avg(t)"
    rows.append(row)

    for cycle in FIXED_CYCLES_US:
        row = run_pa(spec, seed=seed, policy=FixedRateProbing(cycle))
        row["strategy"] = "fixed %dus" % cycle
        rows.append(row)
    return rows


def render(rows, out=print):
    columns = [
        ("strategy", "strategy"),
        ("ops/s", "throughput_ops"),
        ("mean lat (us)", "mean_latency_us"),
        ("p99 lat (us)", "p99_latency_us"),
        ("probes", "probes"),
    ]
    print_table("Fig 10: probing strategy comparison", columns, rows, out=out)
