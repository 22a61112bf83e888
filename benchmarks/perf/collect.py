"""Virtual-time statistics, read from public counters around the timed phase.

Everything here is on the *simulated* clock: what the modelled NVMe
device, OS and index would take.  The numbers are deterministic in
``(workload, seed)`` and must repeat exactly; ``sim_digest`` hashes all
of them together with the stored item set so that a change meant only
to speed up the simulator can prove it moved none.
"""

import bisect
import hashlib
import json

from repro.core.ops import BATCH, SYNC
from repro.sim.clock import NS_PER_SEC
from repro.sim.metrics import CPU_CATEGORIES

from benchmarks.perf.rigs import op_weight

#: PaTreeEngine counters (``repro.sim.metrics.Counter`` attributes)
_WORKER_COUNTERS = (
    "probes", "probe_skips", "idle_spins", "idle_yields",
    "latch_wait_events", "batch_keys", "batch_groups", "coalesced_writes",
    "io_escalations",
)
_BUFFER_COUNTERS = ("hits", "misses", "write_absorbs", "flushes")

#: user bytes per written key: 8 B key + 8 B payload
USER_BYTES_PER_WRITE = 16


def snapshot(rig):
    """Cumulative raw counters of every layer, as one flat dict."""
    simos = rig.simos
    account = simos.cpu_account()
    snap = {
        "now_ns": rig.sim.now,
        "events": rig.sim.dispatched,
        "busy_ns": simos.total_busy_ns(),
        "context_switches": simos.context_switches.value,
        "preemptions": simos.preemptions.value,
        "sem_blocks": simos.sem_blocks.value,
        "cpu_ns": account.total_ns,
    }
    for category in CPU_CATEGORIES:
        snap["cpu_ns." + category] = account.by_category[category]
    reads = writes = errors = probe_calls = retries = 0
    read_latency_ns = write_latency_ns = 0.0
    for backend in rig.backends:
        n_reads = backend.reads_completed.value
        n_writes = backend.writes_completed.value
        reads += n_reads
        writes += n_writes
        errors += backend.errors_completed.value
        probe_calls += backend.probe_calls.value
        retries += backend.retries_scheduled.value
        read_latency_ns += backend.mean_read_latency_ns() * n_reads
        write_latency_ns += backend.mean_write_latency_ns() * n_writes
    snap.update(
        reads=reads, writes=writes, errors=errors, probe_calls=probe_calls,
        retries=retries, read_latency_ns=read_latency_ns,
        write_latency_ns=write_latency_ns,
        submitted=sum(qpair.submitted for qpair in rig.qpairs),
        vector_commands=sum(qpair.vector_commands for qpair in rig.qpairs),
    )
    for name in _WORKER_COUNTERS:
        snap[name] = sum(getattr(worker, name).value for worker in rig.workers)
    for name in _BUFFER_COUNTERS:
        snap["buffer_" + name] = sum(
            getattr(buffer, name, 0) for buffer in rig.buffers
        )
    lsm = rig.lsm_workers
    snap["lsm_probes"] = sum(worker.probes.value for worker in lsm)
    snap["lsm_flushes"] = sum(worker.store.flushes for worker in lsm)
    snap["lsm_compactions"] = sum(worker.store.compactions for worker in lsm)
    # an LSM rig owns its one device, so every write on it is the store's
    snap["lsm_device_writes"] = writes if lsm else 0
    return snap


def mark_gauges(rig):
    """Checkpoint the time-weighted gauges at the start of the window."""
    return [backend.outstanding.mark() for backend in rig.backends]


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def quantile_us(ordered_ns, q):
    """q-quantile (0..1) of sorted nanosecond samples, in microseconds.

    Virtual-time latencies are quantised: the shared I/O daemon, for
    one, detects completions on a fixed polling cycle, so a few percent
    of all samples share each value and a plain order statistic reads
    the same for every seed.  Ties are therefore treated as a histogram
    bin reaching half-way to the neighbouring values, and the quantile
    interpolates inside the bin by its rank among the tied samples — the
    estimator histogram-based percentiles use.  On untied data it stays
    within one neighbour gap of the usual interpolation.
    """
    if not ordered_ns:
        return 0.0
    rank = q * (len(ordered_ns) - 1)
    value = ordered_ns[int(rank)]
    first = bisect.bisect_left(ordered_ns, value)
    last = bisect.bisect_right(ordered_ns, value) - 1
    below = ordered_ns[first - 1] if first else value
    above = ordered_ns[last + 1] if last + 1 < len(ordered_ns) else value
    low = (below + value) / 2.0
    high = (value + above) / 2.0
    share = (rank - first + 0.5) / (last - first + 1)
    return (low + share * (high - low)) / 1000.0


def _latencies(rig):
    """Sorted per-user-op virtual latencies and open-loop admission lags.

    Each spec of a batch inherits its batch's latency.
    """
    recorder = []
    lags = []
    source = rig.open_source
    for index, op in enumerate(rig.operations):
        if op.kind == SYNC or op.error is not None or op.done_ns is None:
            continue
        if source is not None:
            # open loop: independent users are timed from when the
            # request was due, which counts the wait behind a stall
            recorder.append(op.done_ns - source.due_ns[index])
            lags.append(op.admit_ns - source.due_ns[index])
        else:
            recorder.extend([op.latency_ns] * op_weight(op))
    return sorted(recorder), sorted(lags)


def _shard_imbalance(rig, start_ns):
    """Max over min of the per-worker virtual throughputs (1.0 = even)."""
    rates = [
        _ratio(worker.user_completed, worker.last_user_done_ns - start_ns)
        for worker in rig.workers + rig.lsm_workers
    ]
    if len(rates) < 2 or min(rates) <= 0:
        return 1.0
    return max(rates) / min(rates)


def virtual_stats(rig, before, after, gauge_marks):
    """(end-to-end sim metrics, per-layer counters) of one timed phase."""
    delta = {key: after[key] - before[key] for key in after}
    user_ops = rig.user_operations()
    n_ops = rig.user_op_count()
    completed = sum(
        op_weight(op) for op in user_ops
        if op.error is None and op.done_ns is not None
    )
    start_ns = before["now_ns"]
    last_done_ns = max(
        (op.done_ns for op in user_ops if op.done_ns is not None),
        default=start_ns,
    )
    elapsed_s = (last_done_ns - start_ns) / NS_PER_SEC
    window_ns = delta["now_ns"]
    recorder, lags = _latencies(rig)

    sim = {
        "sim_ops_per_s": _ratio(completed, elapsed_s),
        "sim_p50_latency_us": quantile_us(recorder, 0.50),
        "sim_p99_latency_us": quantile_us(recorder, 0.99),
        "sim_cpu_us_per_op": _ratio(delta["cpu_ns"] / 1000.0, n_ops),
        "sim_device_reads_per_op": _ratio(delta["reads"], n_ops),
        "sim_device_writes_per_op": _ratio(delta["writes"], n_ops),
        "events_per_op": _ratio(delta["events"], n_ops),
    }

    completions = delta["reads"] + delta["writes"] + delta["errors"]
    lookups = delta["buffer_hits"] + delta["buffer_misses"]
    user_bytes = USER_BYTES_PER_WRITE * sum(
        1 for op in user_ops if op.is_update and op.kind != BATCH
    )
    page_size = rig.backends[0].page_size
    layers = {
        "sim.events_per_op": sim["events_per_op"],
        "simos.context_switches_per_op": _ratio(delta["context_switches"], n_ops),
        "simos.preemptions_per_op": _ratio(delta["preemptions"], n_ops),
        "simos.sem_blocks_per_op": _ratio(delta["sem_blocks"], n_ops),
        "simos.cores_used": _ratio(delta["busy_ns"], window_ns),
        "nvme.outstanding_avg": sum(
            backend.outstanding.average(mark)
            for backend, mark in zip(rig.backends, gauge_marks)
        ),
        "nvme.iops_sim": _ratio(completions, elapsed_s),
        "nvme.mean_read_latency_us": _ratio(
            delta["read_latency_ns"] / 1000.0, delta["reads"]
        ),
        "nvme.mean_write_latency_us": _ratio(
            delta["write_latency_ns"] / 1000.0, delta["writes"]
        ),
        "nvme.probe_calls_per_op": _ratio(delta["probe_calls"], n_ops),
        "nvme.completions_per_probe": _ratio(completions, delta["probe_calls"]),
        "nvme.retries_per_op": _ratio(delta["retries"], n_ops),
        "nvme.errors_per_op": _ratio(delta["errors"], n_ops),
        "nvme.vector_commands_share": _ratio(
            delta["vector_commands"], delta["submitted"]
        ),
        "core.probes_per_op": _ratio(delta["probes"], n_ops),
        "core.probe_skips_per_op": _ratio(delta["probe_skips"], n_ops),
        "core.idle_spins_per_op": _ratio(delta["idle_spins"], n_ops),
        "core.idle_yields_per_op": _ratio(delta["idle_yields"], n_ops),
        "core.latch_waits_per_op": _ratio(delta["latch_wait_events"], n_ops),
        "core.batch_mean_group_size": _ratio(
            delta["batch_keys"], delta["batch_groups"]
        ),
        "core.coalesced_writes_per_op": _ratio(delta["coalesced_writes"], n_ops),
        "core.io_escalations_per_op": _ratio(delta["io_escalations"], n_ops),
        "core.admit_lag_p99_us": quantile_us(lags, 0.99),
        "buffer.hit_ratio": _ratio(delta["buffer_hits"], lookups),
        "buffer.write_absorbs_per_op": _ratio(delta["buffer_write_absorbs"], n_ops),
        "buffer.flushes_per_op": _ratio(delta["buffer_flushes"], n_ops),
        "palsm.flushes": delta["lsm_flushes"],
        "palsm.compactions": delta["lsm_compactions"],
        "palsm.probes_per_op": _ratio(delta["lsm_probes"], n_ops),
        "palsm.device_bytes_per_user_byte": _ratio(
            delta["lsm_device_writes"] * page_size, user_bytes
        ),
        "shard.tput_imbalance": _shard_imbalance(rig, start_ns),
    }
    for category in CPU_CATEGORIES:
        layers["simos.cpu_share." + category] = _ratio(
            delta["cpu_ns." + category], delta["cpu_ns"]
        )
    counts = {
        "ops": n_ops,
        "completed": completed,
        "latency_samples": len(recorder),
        "events": delta["events"],
        "virtual_elapsed_s": elapsed_s,
    }
    return sim, layers, counts


def digest(sim, layers, counts, items):
    """sha256 over every virtual-time statistic and the stored items."""
    item_hash = hashlib.sha256()
    for key, payload in sorted(items):
        item_hash.update(key.to_bytes(8, "little"))
        item_hash.update(payload)
    canonical = json.dumps(
        {"sim": sim, "layers": layers, "counts": counts,
         "items": item_hash.hexdigest()},
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode()).hexdigest()
