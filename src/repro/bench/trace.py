"""``python -m repro.bench trace <target>`` — record a run end to end.

Runs a representative arm of one of the paper's experiments with the
:mod:`repro.obs` stack attached and writes three artefacts into the
output directory (default ``traces/``):

* ``<target>.trace.json``  — Chrome ``trace_event`` JSON; open it at
  https://ui.perfetto.dev or ``chrome://tracing``,
* ``<target>.trace.jsonl`` — raw events, one JSON object per line,
* ``BENCH_<target>.json``  — machine-readable run summary: throughput /
  latency aggregates plus the histogram and time-series summaries.

It also prints the "top spans / CPU flame" text summary.  Everything is
recorded in virtual time from the deterministic engine, so the same
target and seed always produce byte-identical artefacts.
"""

import os

from repro.bench.report import write_bench_json
from repro.bench.runner import WorkloadSpec, run_pa


def _pa_target(description, mix="default", persistence="strong",
               buffer_pages=0, sync_every=0, default_ops=2_500):
    def run(ops, seed):
        spec = WorkloadSpec(
            kind="ycsb",
            n_keys=20_000,
            n_ops=ops or default_ops,
            mix=mix,
            sync_every=sync_every,
        )
        return run_pa(
            spec,
            seed=seed,
            persistence=persistence,
            buffer_pages=buffer_pages,
            trace=True,
        )

    return description, run


def _run_palsm(ops, seed):
    """Traced PA-LSM run (the paper's future-work extension)."""
    from repro.backend import i3_nvme_profile, make_backend
    from repro.core.source import ClosedLoopSource
    from repro.obs import TraceSession
    from repro.palsm import AsyncLsmStore, PolledLsmWorker
    from repro.sched.naive import NaiveScheduling
    from repro.sim.clock import NS_PER_SEC
    from repro.sim.engine import Engine
    from repro.sim.rng import RngRegistry
    from repro.simos.scheduler import SimOS, paper_testbed_profile

    engine = Engine(seed=seed)
    simos = SimOS(engine, paper_testbed_profile())
    backend = make_backend("sim", engine=engine, profile=i3_nvme_profile())
    device = backend.device
    store = AsyncLsmStore(device, persistence="strong")
    spec = WorkloadSpec(kind="ycsb", n_keys=20_000, n_ops=ops or 2_000)
    workload = spec.build(RngRegistry(seed).stream("workload"))
    store.bulk_load(workload.preload_items())
    store.resize_block_cache(max(store.data_pages() // 10, 1))

    session = TraceSession(engine)
    worker = PolledLsmWorker(
        simos,
        backend,
        store,
        NaiveScheduling(),
        ClosedLoopSource([], window=1),
        tracer=session.tracer,
    )
    session.attach_device(device)
    session.attach_simos(simos)
    session.attach_worker(worker)
    session.start()
    worker.run_operations(list(workload.operations()), window=32)
    session.finish()

    end_ns = worker.last_user_done_ns or engine.now
    elapsed_s = end_ns / NS_PER_SEC if end_ns else 1.0
    return {
        "approach": "pa-lsm",
        "completed": worker.user_completed,
        "throughput_ops": worker.user_completed / elapsed_s,
        "mean_latency_us": worker.latencies.mean_usec(),
        "p99_latency_us": worker.latencies.p99_usec(),
        "probes": worker.probes.value,
        "trace_session": session,
    }


TARGETS = {
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


def list_targets(out=print):
    for name, (description, _run) in sorted(TARGETS.items()):
        out("%-14s %s" % (name, description))


def run_trace(target, ops=None, seed=1, out_dir="traces", out=print):
    """Run one traced target and write its artefacts; returns paths."""
    description, run = TARGETS[target]
    out("tracing: %s" % description)
    result = run(ops, seed)
    session = result.pop("trace_session")

    os.makedirs(out_dir, exist_ok=True)
    prefix = os.path.join(out_dir, target)
    trace_path, jsonl_path = session.write_artifacts(prefix)

    payload = {
        "target": target,
        "seed": seed,
        "result": {
            key: value
            for key, value in sorted(result.items())
            if isinstance(value, (int, float, str, dict))
        },
        "observability": session.bench_summary(),
    }
    bench_path = write_bench_json(target, payload, out_dir)

    session.summary_text(out=out)
    out("wrote %s" % trace_path)
    out("wrote %s" % jsonl_path)
    out("wrote %s" % bench_path)
    return trace_path, jsonl_path, bench_path


def main(args, out=print):
    target = args.target
    if target in (None, "list"):
        list_targets(out=out)
        return 0
    if target not in TARGETS:
        out("unknown trace target %r; available:" % target)
        list_targets(out=out)
        return 2
    run_trace(
        target,
        ops=args.ops,
        seed=args.seed,
        out_dir=args.out or "traces",
        out=out,
    )
    return 0
