"""Extension bench: the polled-mode asynchronous paradigm on an LSM.

The paper leaves "applying our polled-mode, asynchronous programming
model on LSM tree" as future work; this bench runs that system
(``repro.palsm``) against the synchronous multi-threaded LSM baseline
on identical machines and workloads.  The paradigm's advantages
transfer: one worker keeps the device full while the blocking threads
serialize on WAL writes and device latency, and compactions overlap
user operations instead of stalling a worker thread.
"""

from repro.baselines.io_service import DedicatedIoService
from repro.baselines.lsm import LeveledStore, LsmConfig, LsmStore
from repro.baselines.runner import BaselineRunner
from repro.bench.report import print_table
from repro.bench.runner import WorkloadSpec, _interleave_syncs
from repro.core.source import ClosedLoopSource
from repro.nvme.device import NvmeDevice, i3_nvme_profile
from repro.nvme.driver import NvmeDriver
from repro.palsm import PolledLsmWorker
from repro.sched.naive import NaiveScheduling
from repro.sim.clock import NS_PER_SEC
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.simos.scheduler import SimOS, paper_testbed_profile

BASELINE_THREADS = 32
SYNC_EVERY = 1000


def _machine(seed):
    engine = Engine(seed=seed)
    simos = SimOS(engine, paper_testbed_profile())
    device = NvmeDevice(engine, i3_nvme_profile())
    driver = NvmeDriver(device)
    return engine, simos, device, driver


def _workload(spec, seed):
    return spec.build(RngRegistry(seed).stream("workload"))


def run_palsm(spec, persistence, seed=1):
    engine, simos, device, driver = _machine(seed)
    store = LeveledStore(device, persistence=persistence)
    workload = _workload(spec, seed)
    store.bulk_load(workload.preload_items())
    store.resize_block_cache(store.data_pages() // 10)
    operations = workload.operations()
    if persistence == "weak":
        operations = _interleave_syncs(operations, SYNC_EVERY)
    worker = PolledLsmWorker(
        simos, driver, store, NaiveScheduling(), ClosedLoopSource([], window=1)
    )
    worker.run_operations(list(operations), window=BASELINE_THREADS)
    end_ns = worker.last_user_done_ns or engine.now
    return {
        "approach": "pa-lsm",
        "throughput_ops": worker.user_completed / (end_ns / NS_PER_SEC),
        "mean_latency_us": worker.latencies.mean_usec(),
        "cores_used": simos.total_busy_ns() / engine.now,
        "compactions": store.compactions,
    }


def run_sync_lsm(spec, persistence, seed=1):
    engine, simos, device, driver = _machine(seed)
    io_service = DedicatedIoService(driver)
    store = LsmStore(device, io_service, LsmConfig(), persistence=persistence)
    workload = _workload(spec, seed)
    store.bulk_load(workload.preload_items())
    store.resize_block_cache(store.data_pages() // 10)
    operations = workload.operations()
    if persistence == "weak":
        operations = _interleave_syncs(operations, SYNC_EVERY)
    runner = BaselineRunner(
        simos, store, operations, BASELINE_THREADS, name="lsm"
    )
    runner.run_to_completion()
    end_ns = runner.last_user_done_ns or engine.now
    return {
        "approach": "sync-lsm (32 threads)",
        "throughput_ops": runner.user_completed / (end_ns / NS_PER_SEC),
        "mean_latency_us": runner.latencies.mean_usec(),
        "cores_used": simos.total_busy_ns() / engine.now,
        "compactions": store.compactions,
    }


def test_palsm_extension(benchmark, record_report):
    out = record_report("palsm_extension")

    def run():
        rows = []
        for mix in ("default", "update_heavy"):
            spec = WorkloadSpec(kind="ycsb", n_keys=20_000, n_ops=2_500, mix=mix)
            for persistence in ("strong", "weak"):
                for runner in (run_palsm, run_sync_lsm):
                    row = runner(spec, persistence)
                    row["mix"] = mix
                    row["persistence"] = persistence
                    rows.append(row)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "Extension: polled-mode asynchronous LSM vs synchronous LSM",
        [
            ("mix", "mix"),
            ("persistence", "persistence"),
            ("approach", "approach"),
            ("ops/s", "throughput_ops"),
            ("mean lat (us)", "mean_latency_us"),
            ("CPU (cores)", "cores_used"),
        ],
        rows,
        out=out,
    )
    out.save(rows)

    def arm(mix, persistence, approach):
        return next(
            r
            for r in rows
            if r["mix"] == mix
            and r["persistence"] == persistence
            and r["approach"].startswith(approach)
        )

    for mix in ("default", "update_heavy"):
        for persistence in ("strong", "weak"):
            pa = arm(mix, persistence, "pa-lsm")
            sync = arm(mix, persistence, "sync-lsm")
            # the paradigm transfers: higher throughput at far less CPU
            assert pa["throughput_ops"] > 1.5 * sync["throughput_ops"], (
                mix,
                persistence,
            )
            assert pa["cores_used"] < sync["cores_used"]
