"""``python -m repro.bench trace|metrics <target>`` — observed runs.

Both verbs run a representative workload with part of the
:mod:`repro.obs` stack attached, write that observer's artefacts plus a
machine-readable ``BENCH_*.json`` summary into the output directory,
and print the observer's text report.  They differ only by the
:class:`Kind` record below.

``trace`` (default directory ``traces/``) attaches a
:class:`~repro.obs.TraceSession`:

* ``<target>.trace.json``  — Chrome ``trace_event`` JSON; open it at
  https://ui.perfetto.dev or ``chrome://tracing``,
* ``<target>.trace.jsonl`` — raw events, one JSON object per line,
* ``BENCH_<target>.json``  — throughput / latency aggregates plus the
  histogram and time-series summaries,

and prints the "top spans / CPU flame" summary.

``metrics`` (default directory ``metrics/``) attaches the health stack
(labeled registry + SLO tracker + flight recorder + periodic scrape):

* ``<target>.metrics.jsonl``    — virtual-time metric scrapes, one JSON
  object per line,
* ``<target>.prom``             — Prometheus text-exposition snapshot,
* ``<target>.postmortem.json``  — flight-recorder postmortems (only
  when a typed I/O error escalated),
* ``BENCH_metrics_<target>.json`` — summary suitable for
  ``python -m repro.bench diff``,

and prints the health report: top metrics by magnitude, the SLO table
(p99/p999 vs per-op-class targets) and the flight-recorder summary.

Everything is recorded in virtual time from the deterministic engine,
so the same target and seed always produce byte-identical artefacts.
"""

import os
from collections import namedtuple

from repro.api import PATreeSession, ShardedSession, SimEnvironment
from repro.baselines.lsm import LeveledStore
from repro.bench.report import write_bench_json
from repro.bench.runner import WorkloadSpec, run_pa
from repro.core.source import ClosedLoopSource
from repro.obs import MetricsSession, TraceSession
from repro.palsm import PolledLsmWorker
from repro.sched.naive import NaiveScheduling
from repro.sim.clock import NS_PER_SEC
from repro.sim.rng import RngRegistry

# ----------------------------------------------------------------------
# trace targets: ``run(ops, seed) -> (result, TraceSession)``
# ----------------------------------------------------------------------


def _pa_target(description, mix="default", persistence="strong",
               buffer_pages=0, sync_every=0):
    def run(ops, seed):
        spec = WorkloadSpec(
            kind="ycsb",
            n_keys=20_000,
            n_ops=ops or 2_500,
            mix=mix,
            sync_every=sync_every,
        )
        result = run_pa(
            spec,
            seed=seed,
            persistence=persistence,
            buffer_pages=buffer_pages,
            trace=True,
        )
        return result, result.pop("trace_session")

    return description, run


def _run_palsm(ops, seed):
    """Traced PA-LSM run (the paper's future-work extension), always on
    the simulated device: ``--backend`` does not reach it."""
    env = SimEnvironment(seed, backend="sim")
    engine = env.engine
    store = LeveledStore(env.device)
    spec = WorkloadSpec(kind="ycsb", n_keys=20_000, n_ops=ops or 2_000)
    workload = spec.build(RngRegistry(seed).stream("workload"))
    store.bulk_load(workload.preload_items())
    store.resize_block_cache(max(store.data_pages() // 10, 1))

    session = TraceSession(engine)
    worker = PolledLsmWorker(
        env.os,
        env.backend,
        store,
        NaiveScheduling(),
        ClosedLoopSource([], window=1),
    )
    session.attach_device(env.device)
    session.attach_simos(env.os)
    session.attach_worker(worker)
    session.start()
    worker.run_operations(list(workload.operations()), window=32)
    session.finish()

    end_ns = worker.last_user_done_ns or engine.now
    elapsed_s = end_ns / NS_PER_SEC if end_ns else 1.0
    result = {
        "approach": "pa-lsm",
        "completed": worker.user_completed,
        "throughput_ops": worker.user_completed / elapsed_s,
        "mean_latency_us": worker.latencies.mean_usec(),
        "p99_latency_us": worker.latencies.p99_usec(),
        "probes": worker.probes.value,
    }
    return result, session


TRACE_TARGETS = {
    "fig7": _pa_target(
        "PA-Tree on the default YCSB mix (Fig 7/8/9 PA arm)"
    ),
    "update_heavy": _pa_target(
        "PA-Tree on the 50% update YCSB mix", mix="update_heavy"
    ),
    "fig14": _pa_target(
        "PA-Tree with weak-persistent buffering (Fig 14 arm)",
        persistence="weak",
        buffer_pages=2_000,
        sync_every=200,
    ),
    "palsm": (
        "PA-LSM extension run (get/put with flushes and compactions)",
        _run_palsm,
    ),
}

# ----------------------------------------------------------------------
# metrics targets: ``run(ops, seed) -> (result, MetricsSession)``
# ----------------------------------------------------------------------

# fault arm: enough transient read errors to exhaust a 2-retry budget
# occasionally, plus a small poisoned LBA range whose reads fail with
# the non-retriable UNRECOVERED_READ — both escalate typed IoErrors,
# which is exactly what the flight recorder's postmortems are for
_FAULT_CONFIG = {"read_error_rate": 0.3, "poison_ranges": ((40, 60),)}
_FAULT_RETRY = {"max_retries": 2}

_RESULT_KEYS = ("completed", "failed_ops", "io_errors", "virtual_time_us")


def _session_target(description, session_cls, **config):
    """A target that drives an API session with metrics attached."""

    def run(ops, seed):
        spec = WorkloadSpec(kind="ycsb", n_keys=20_000, n_ops=ops or 2_000)
        workload = spec.build(RngRegistry(seed).stream("workload"))
        with session_cls(seed=seed, **config) as session:
            metrics = session.attach_metrics()
            session.bulk_load(workload.preload_items())
            metrics.start()
            session.execute(workload.operations())
            metrics.finish()
            stats = session.stats()
            result = {key: stats[key] for key in _RESULT_KEYS if key in stats}
            result["slo_violations"] = metrics.slo.total_violations()
            result["postmortems"] = len(metrics.postmortems)
        return result, metrics

    return description, run


METRICS_TARGETS = {
    "fig7": _session_target(
        "PA-Tree on the default YCSB mix, full metrics stack attached",
        PATreeSession,
    ),
    "faults": _session_target(
        "PA-Tree under heavy injected faults (retry exhaustion, poison)",
        PATreeSession,
        faults=_FAULT_CONFIG,
        retry=_FAULT_RETRY,
    ),
    "shards": _session_target(
        "4-shard PA-Tree fleet with per-shard metric labels",
        ShardedSession,
        shards=4,
    ),
}

# ----------------------------------------------------------------------
# the two kinds, and the one path they share
# ----------------------------------------------------------------------

#: What distinguishes one observer verb from another: default output
#: directory, ``BENCH_`` name prefix, payload section the session's
#: ``bench_summary()`` lands under, the report the session prints, and
#: the targets table.
Kind = namedtuple("Kind", "out_dir bench_prefix section report targets")

KINDS = {
    "trace": Kind(
        "traces", "", "observability", TraceSession.summary_text, TRACE_TARGETS
    ),
    "metrics": Kind(
        "metrics",
        "metrics_",
        "health",
        MetricsSession.health_report,
        METRICS_TARGETS,
    ),
}


def list_targets(kind, out=print):
    for name, (description, _run) in sorted(KINDS[kind].targets.items()):
        out("%-14s %s" % (name, description))


def run_observed(kind, target, ops=None, seed=1, out_dir=None, out=print):
    """Run one observed target and write its artefacts; returns paths."""
    spec = KINDS[kind]
    out_dir = out_dir or spec.out_dir
    description, run = spec.targets[target]
    out("%s: %s" % (kind, description))
    result, session = run(ops, seed)

    os.makedirs(out_dir, exist_ok=True)
    paths = session.write_artifacts(os.path.join(out_dir, target))
    payload = {
        "target": target,
        "seed": seed,
        "result": result,
        spec.section: session.bench_summary(),
    }
    paths += (write_bench_json(spec.bench_prefix + target, payload, out_dir),)

    spec.report(session, out=out)
    for path in paths:
        out("wrote %s" % path)
    return paths


def main(kind, args, out=print):
    target = args.target
    if target in (None, "list"):
        list_targets(kind, out=out)
        return 0
    if target not in KINDS[kind].targets:
        out("unknown %s target %r; available:" % (kind, target))
        list_targets(kind, out=out)
        return 2
    run_observed(
        kind,
        target,
        ops=args.ops,
        seed=1 if args.seed is None else args.seed,
        out_dir=args.out,
        out=out,
    )
    return 0
