"""Fig 15 — end-to-end comparison.

PA-Tree versus the state-of-the-art baselines the paper uses —
LevelDB-style LSM store, LCB-Tree (log-based consistent B+ tree) and
Blink-tree — under strong and weak persistence, on the default YCSB
mix and the two real-workload stand-ins (T-Drive trajectories, SSE
order book).  As in the paper: every method gets a memory buffer of
10 % of the index size, weak persistence syncs every 1000 updates, and
the synchronous baselines run multi-threaded (the paper reports their
best thread count; we use 32, their observed best).
"""

from dataclasses import replace

from repro.api import SimEnvironment
from repro.baselines.blink_tree import BlinkTreeAccessor
from repro.baselines.io_service import DedicatedIoService
from repro.baselines.latching import BlockingLatchTable
from repro.baselines.lcb_tree import LcbTreeAccessor
from repro.baselines.lsm import LsmConfig, LsmStore
from repro.baselines.runner import BaselineRunner
from repro.bench.report import print_table
from repro.bench.runner import WorkloadSpec, _interleave_syncs, run_pa
from repro.buffer import make_buffer
from repro.core.tree import PaTree
from repro.errors import BenchmarkError
from repro.sim.clock import NS_PER_SEC
from repro.sim.rng import RngRegistry

TITLE = "Fig 15: end-to-end comparison"

#: Sized per workload (``WORKLOADS``); ``ops`` overrides every spec.
OPS = None

SYNC_EVERY = 1000
BASELINE_THREADS = 32

WORKLOADS = {
    "ycsb-default": WorkloadSpec(
        kind="ycsb", n_keys=20_000, n_ops=2_500, mix="default", insert_ratio=0.3
    ),
    "t-drive": WorkloadSpec(kind="tdrive", n_keys=20_000, n_ops=1_500, n_actors=300),
    "sse": WorkloadSpec(
        kind="sse", n_keys=12_000, n_ops=1_500, payload_size=100, n_actors=200
    ),
}


def _buffer_pages_for(tree):
    """10 % of the index size, as in the paper's setup."""
    return max(64, tree.allocator.allocated_count // 10)


def run_tree_baseline(spec, accessor_kind, persistence, n_threads, seed=1):
    """LCB / Blink run over the shared synchronous substrate."""
    env = SimEnvironment(seed)
    try:
        tree = PaTree.create(env.device, payload_size=spec.payload_size)
        rng = RngRegistry(seed).stream("workload")
        workload = spec.build(rng)
        tree.bulk_load(workload.preload_items())
        buffer_pages = _buffer_pages_for(tree)

        io_service = DedicatedIoService(env.driver)
        latches = BlockingLatchTable()
        if accessor_kind == "blink":
            accessor = BlinkTreeAccessor(
                tree,
                io_service,
                latches,
                buffer=make_buffer(persistence, buffer_pages),
            )
        elif accessor_kind == "lcb":
            accessor = LcbTreeAccessor(
                tree,
                io_service,
                latches,
                buffer=make_buffer("strong", buffer_pages),
                persistence=persistence,
            )
        else:
            raise BenchmarkError("unknown accessor kind %r" % (accessor_kind,))

        operations = workload.operations()
        if persistence == "weak":
            operations = _interleave_syncs(operations, SYNC_EVERY)
        runner = BaselineRunner(
            env.os, accessor, operations, n_threads, name=accessor_kind
        )
        runner.run_to_completion()
        return _collect(env, runner, accessor_kind, n_threads)
    finally:
        env.close()


def run_lsm_baseline(spec, persistence, n_threads, seed=1):
    env = SimEnvironment(seed)
    try:
        rng = RngRegistry(seed).stream("workload")
        workload = spec.build(rng)
        io_service = DedicatedIoService(env.driver)
        store = LsmStore(env.device, io_service, LsmConfig(), persistence=persistence)
        store.bulk_load(workload.preload_items())
        store.resize_block_cache(store.data_pages() // 10)  # 10 % as in the paper
        operations = workload.operations()
        if persistence == "weak":
            operations = _interleave_syncs(operations, SYNC_EVERY)
        runner = BaselineRunner(
            env.os, store, operations, n_threads, name="lsm"
        )
        runner.run_to_completion()
        return _collect(env, runner, "leveldb-lsm", n_threads)
    finally:
        env.close()


def _collect(env, runner, approach, n_threads):
    end_ns = runner.last_user_done_ns or env.engine.now
    elapsed_s = end_ns / NS_PER_SEC
    return {
        "approach": approach,
        "threads": n_threads,
        "throughput_ops": runner.user_completed / elapsed_s if elapsed_s else 0.0,
        "mean_latency_us": runner.latencies.mean_usec(),
        "p99_latency_us": runner.latencies.p99_usec(),
        "completed": runner.completed.value,
        "cores_used": env.os.total_busy_ns() / env.engine.now
        if env.engine.now
        else 0.0,
    }


def run_pa_arm(spec, persistence, seed=1):
    # estimate the buffer from the workload's preload footprint
    env = SimEnvironment(seed)
    try:
        tree = PaTree.create(env.device, payload_size=spec.payload_size)
        rng = RngRegistry(seed).stream("workload")
        workload = spec.build(rng)
        tree.bulk_load(workload.preload_items())
        buffer_pages = _buffer_pages_for(tree)
    finally:
        env.close()

    if persistence == "weak":
        spec = replace(spec, sync_every=SYNC_EVERY)
    row = run_pa(
        spec,
        seed=seed,
        persistence=persistence,
        buffer_pages=buffer_pages,
        # matched concurrency: the same number of in-flight operations
        # as the baselines have worker threads, so latency comparisons
        # are apples-to-apples
        window=BASELINE_THREADS,
    )
    row["approach"] = "pa-tree"
    return row


def run(ops=OPS, seed=1):
    rows = []
    for workload_name, spec in WORKLOADS.items():
        if ops is not None:
            spec = replace(spec, n_ops=ops)
        for persistence in ("strong", "weak"):
            arms = [run_pa_arm(spec, persistence, seed=seed)]
            arms.append(
                run_tree_baseline(spec, "blink", persistence, BASELINE_THREADS, seed)
            )
            arms.append(
                run_tree_baseline(spec, "lcb", persistence, BASELINE_THREADS, seed)
            )
            arms.append(run_lsm_baseline(spec, persistence, BASELINE_THREADS, seed))
            for row in arms:
                row["workload"] = workload_name
                row["persistence"] = persistence
                rows.append(row)
    return rows


def render(rows, out=print):
    columns = [
        ("workload", "workload"),
        ("persistence", "persistence"),
        ("method", "approach"),
        ("ops/s", "throughput_ops"),
        ("mean lat (us)", "mean_latency_us"),
        ("p99 lat (us)", "p99_latency_us"),
    ]
    print_table("Fig 15: end-to-end comparison", columns, rows, out=out)
