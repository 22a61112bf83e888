"""Fig 11 — workload-aware vs dedicated polling thread.

PA-Tree (working thread probes inline, model-gated) versus PAD-Tree
(a second thread polls continuously) and PAD+-Tree (a second thread
polls, gated by the workload-aware model).  Reports throughput and CPU
consumption: PAD burns CPU and over-probes the device; PAD+ matches
PA's probing but pays the cross-thread handoff, landing slightly below
PA — the paper's conclusion that the extra thread buys nothing.
"""

from repro.bench.report import print_table
from repro.bench.runner import WorkloadSpec, run_pa
from repro.core.engine import POLLER_CONTINUOUS, POLLER_MODEL
from repro.backend import i3_nvme_profile
from repro.sched.probe_model import cached_probe_model
from repro.sched.workload_aware import WorkloadAwareScheduling

TITLE = "Fig 11: dedicated polling variants"
OPS = 3_000


def run(ops=OPS, seed=1):
    spec = WorkloadSpec(kind="ycsb", n_keys=20_000, n_ops=ops, mix="default")
    model = cached_probe_model(i3_nvme_profile())
    rows = []
    for name, poller in (
        ("PA-Tree", None),
        ("PAD-Tree", POLLER_CONTINUOUS),
        ("PAD+-Tree", POLLER_MODEL),
    ):
        row = run_pa(
            spec,
            seed=seed,
            policy=WorkloadAwareScheduling(model),
            dedicated_poller=poller,
        )
        row["variant"] = name
        rows.append(row)
    return rows


def render(rows, out=print):
    columns = [
        ("variant", "variant"),
        ("ops/s", "throughput_ops"),
        ("mean lat (us)", "mean_latency_us"),
        ("CPU (cores)", "cores_used"),
        ("probes", "probes"),
    ]
    print_table("Fig 11: dedicated polling thread variants", columns, rows, out=out)
