"""Fig 3 — raw NVMe device characterization.

(a) IOPS vs queue depth for several write rates,
(b) mean access latency vs queue depth for several write rates,
(c) IOPS and latency vs probe cycle at fixed queue depth.

Drives the device model directly (no OS threads, no tree): a fixed
number of outstanding commands is maintained open-loop, the completion
queue is probed on a fixed cycle, and each detected completion is
immediately replaced — the standard ``fio``-style device microbench.
"""

from repro.bench.report import print_series
from repro.backend import i3_nvme_profile, make_backend
from repro.errors import BenchmarkError
from repro.sim.clock import NS_PER_SEC, to_usec, usec
from repro.sim.engine import Engine

TITLE = "Fig 3: NVMe device characterization"

#: Not sized in operations: every point holds its queue depth for a
#: fixed virtual duration (``duration_us``).
OPS = None

QD_SWEEP = (1, 2, 4, 8, 16, 32, 64, 128, 256)
WRITE_RATES = (0.0, 0.5, 1.0)
PROBE_CYCLES_US = (0, 1, 5, 10, 20, 50, 100, 200)


def run_fixed_qd(
    queue_depth,
    write_rate,
    probe_cycle_us=5,
    duration_us=60_000,
    seed=3,
):
    """One microbench point; returns {iops, mean_latency_us, ...}."""
    engine = Engine(seed=seed)
    profile = i3_nvme_profile()
    backend = make_backend("sim", engine=engine, profile=profile)
    device = backend.device
    driver = backend.driver
    qpair = driver.alloc_qpair(sq_size=4096, cq_size=4096)
    rng = engine.rng.stream("fig3")
    probe_ns = max(usec(probe_cycle_us), usec(0.5))

    state = {"completed": 0, "latency_sum_ns": 0}

    def submit_one():
        lba = rng.randrange(1, profile.capacity_pages)
        if rng.random() < write_rate:
            driver.write(qpair, lba, bytes(profile.page_size))
        else:
            driver.read(qpair, lba)

    def probe_tick():
        completed = driver.probe(qpair)
        for command in completed:
            state["completed"] += 1
            state["latency_sum_ns"] += engine.now - command.submit_ns
            submit_one()
        engine.schedule(probe_ns, probe_tick)

    for _ in range(queue_depth):
        submit_one()
    engine.schedule(probe_ns, probe_tick)
    engine.run(until_ns=usec(duration_us))

    elapsed_s = engine.now / NS_PER_SEC
    completed = state["completed"]
    return {
        "queue_depth": queue_depth,
        "write_rate": write_rate,
        "probe_cycle_us": probe_cycle_us,
        "iops": completed / elapsed_s if elapsed_s else 0.0,
        "mean_latency_us": to_usec(state["latency_sum_ns"] / completed)
        if completed
        else 0.0,
        "completed": completed,
    }


def run_fig3a_b(qd_sweep=QD_SWEEP, write_rates=WRITE_RATES, duration_us=40_000, seed=3):
    """IOPS and latency vs queue depth x write rate."""
    iops_series = {}
    latency_series = {}
    for write_rate in write_rates:
        label = "write=%d%%" % int(write_rate * 100)
        iops = []
        latency = []
        for queue_depth in qd_sweep:
            point = run_fixed_qd(
                queue_depth, write_rate, duration_us=duration_us, seed=seed
            )
            iops.append(point["iops"])
            latency.append(point["mean_latency_us"])
        iops_series[label] = iops
        latency_series[label] = latency
    return list(qd_sweep), iops_series, latency_series


def run_fig3c(probe_cycles_us=PROBE_CYCLES_US, duration_us=40_000, seed=3):
    """IOPS and latency vs probe cycle at queue depth 32."""
    iops = []
    latency = []
    for cycle in probe_cycles_us:
        point = run_fixed_qd(
            32, 0.0, probe_cycle_us=cycle, duration_us=duration_us, seed=seed
        )
        iops.append(point["iops"])
        latency.append(point["mean_latency_us"])
    return list(probe_cycles_us), {"iops": iops}, {"latency_us": latency}


def run(ops=OPS, seed=3, duration_us=40_000):
    """Both sweeps as two rows: panels (a)/(b), then panel (c)."""
    if ops is not None:
        raise BenchmarkError(
            "fig3 is time-based (every point runs for a fixed virtual "
            "duration); it takes no --ops"
        )
    qds, qd_iops, qd_latency = run_fig3a_b(duration_us=duration_us, seed=seed)
    cycles, cycle_iops, cycle_latency = run_fig3c(
        duration_us=duration_us, seed=seed
    )
    return [
        {"x_name": "qd", "x": qds, "iops": qd_iops, "latency_us": qd_latency},
        {
            "x_name": "cycle",
            "x": cycles,
            "iops": cycle_iops,
            "latency_us": cycle_latency,
        },
    ]


def render(rows, out=print):
    by_qd, by_cycle = rows
    for title, row, metric in (
        ("Fig 3(a) IOPS vs queue depth", by_qd, "iops"),
        ("Fig 3(b) latency (us) vs queue depth", by_qd, "latency_us"),
        ("Fig 3(c) IOPS vs probe cycle (us)", by_cycle, "iops"),
        ("Fig 3(c) latency vs probe cycle (us)", by_cycle, "latency_us"),
    ):
        print_series(title, row["x_name"], row["x"], row[metric], out=out)
