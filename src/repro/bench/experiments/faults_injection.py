"""Faults — PA-Tree goodput and recovery under injected device errors.

The paper evaluates the polled-mode paradigm on a healthy device; this
exhibit measures how the status-carrying completion path degrades when
the device misbehaves.  Three arms, all on the engine-level PA-Tree
(naive scheduler, default YCSB mix, fixed seed):

* ``errors`` — a sweep of transient media-error rates applied to both
  reads and writes.  The driver's :class:`~repro.nvme.driver.RetryPolicy`
  absorbs retriable failures with virtual-time exponential backoff, so
  goodput should degrade smoothly and almost every injected error should
  be retried rather than surfaced.
* ``spikes`` — latency stragglers only (no errors): p99 inflates while
  goodput and the error counters stay clean.
* ``poison`` — a bad LBA range: reads of poisoned pages fail with the
  non-retriable ``unrecovered_read`` status and abort their operation
  with a typed error; a successful write cures the page (FTL
  remap-on-program), so update traffic slowly heals the region.

Every armed run finishes with the structural oracle
(:meth:`~repro.core.tree.PaTree.validate`, which reads media through the
fault-free backdoor), proving the surviving tree is intact, and the row
records the full accounting chain: injected -> retried -> escalated ->
surfaced -> lost.  Rows are deterministic in (ops, seed).
"""

from repro.bench.report import print_table
from repro.bench.runner import WorkloadSpec, run_pa
from repro.faults import FaultConfig

TITLE = "Faults: goodput and recovery under injected device errors"
OPS = 1_500

ERROR_RATES = (0.0, 0.002, 0.01, 0.05)

# Poison a slice of the leaf region: wide enough that the YCSB key
# space hits it, narrow enough that most operations still succeed.
POISON_RANGE = (40, 79)


def _arm_rows(arm, config, n_ops, seed, **extra):
    spec = WorkloadSpec(kind="ycsb", n_keys=20_000, n_ops=n_ops)
    result = run_pa(spec, seed=seed, scheduler="naive", faults=config)
    injected = result.get("faults", {})
    row = {
        "arm": arm,
        "read_err": config.read_error_rate,
        "write_err": config.write_error_rate,
        "spike_rate": config.spike_rate,
        "ops": n_ops,
        "goodput_ops": result["completed"],
        "failed_ops": result.get("failed_ops", 0),
        "throughput_ops": result["throughput_ops"],
        "mean_latency_us": result["mean_latency_us"],
        "p99_latency_us": result["p99_latency_us"],
        "media_errors_injected": injected.get("media_errors_injected", 0),
        "spikes_injected": injected.get("spikes_injected", 0),
        "poison_read_failures": injected.get("poison_read_failures", 0),
        "poison_cured": injected.get("poison_cured", 0),
        "io_retries": result.get("io_retries", 0),
        "io_errors_surfaced": result.get("io_errors", 0),
        "io_escalations": result.get("io_escalations", 0),
        "lost_writes": result.get("lost_writes", 0),
    }
    row.update(extra)
    return row


def run(ops=OPS, seed=1):
    """Run all three arms; returns the list of row dicts."""
    rows = []
    for rate in ERROR_RATES:
        config = FaultConfig(read_error_rate=rate, write_error_rate=rate)
        rows.append(_arm_rows("errors", config, ops, seed))
    rows.append(
        _arm_rows(
            "spikes",
            FaultConfig(spike_rate=0.02, spike_factor=25.0),
            ops,
            seed,
        )
    )
    rows.append(
        _arm_rows(
            "poison",
            FaultConfig(poison_ranges=(POISON_RANGE,)),
            ops,
            seed,
        )
    )
    return rows


def render(rows, out=print):
    columns = [
        ("arm", "arm"),
        ("read err", "read_err"),
        ("write err", "write_err"),
        ("goodput", "goodput_ops"),
        ("failed", "failed_ops"),
        ("ops/s", "throughput_ops"),
        ("p99 lat (us)", "p99_latency_us"),
        ("injected", "media_errors_injected"),
        ("retries", "io_retries"),
        ("surfaced", "io_errors_surfaced"),
        ("escalated", "io_escalations"),
        ("lost", "lost_writes"),
    ]
    print_table(TITLE, columns, rows, out=out)
