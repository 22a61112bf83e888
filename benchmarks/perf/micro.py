"""Micro benchmarks: one layer driven alone through its public calls.

Each function returns host nanoseconds (or microseconds where named)
per unit of the layer's work, the median of :data:`REPEATS` runs.  They
tell an optimisation which layer moved when an end-to-end number does;
they are context for ``host_ops_per_s``, never a substitute for it.
"""

import statistics
import time

from repro.backend import make_backend
from repro.core.node import Node, TreeConfig
from repro.core.tree import PaTree
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.simos.scheduler import SimOS, paper_testbed_profile
from repro.simos.sync import Semaphore
from repro.simos.thread import Cpu, SemPost, SemWait
from repro.workloads import YcsbWorkload, payload_for, preload_key

REPEATS = 3


def _median_ns_per_unit(run, units):
    """Median over REPEATS of ``run()`` wall nanoseconds per unit."""
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        run()
        samples.append((time.perf_counter() - start) * 1e9 / units)
    return statistics.median(samples)


def sim_ns_per_event(events, chains=64):
    """No-op ``schedule`` + dispatch with a realistically shallow heap."""

    def run():
        engine = Engine(seed=1)
        remaining = [events]

        def tick():
            remaining[0] -= 1
            if remaining[0] >= chains:
                engine.schedule(100, tick)

        for chain in range(chains):
            engine.schedule(chain, tick)
        engine.run()

    return _median_ns_per_unit(run, events)


def simos_ns_per_burst_alone(bursts):
    """One thread yielding Cpu bursts, nothing else runnable."""

    def body():
        for _ in range(bursts):
            yield Cpu(100)

    def run():
        engine = Engine(seed=1)
        simos = SimOS(engine, paper_testbed_profile())
        simos.spawn(body())
        engine.run()

    return _median_ns_per_unit(run, bursts)


def simos_ns_per_burst_contended(rounds, threads=16):
    """16 threads on 8 cores passing semaphores round a ring."""

    def body(mine, nxt):
        for _ in range(rounds):
            yield SemWait(mine)
            yield Cpu(100)
            yield SemPost(nxt)

    def run():
        engine = Engine(seed=1)
        simos = SimOS(engine, paper_testbed_profile())
        # every other semaphore starts posted, so half the ring runs
        # while the other half blocks: run queue, wakeups and context
        # switches all take part
        sems = [Semaphore(index % 2) for index in range(threads)]
        for index in range(threads):
            simos.spawn(body(sems[index], sems[(index + 1) % threads]))
        engine.run()

    return _median_ns_per_unit(run, threads * rounds * 3)


def backend_ns_per_io_qd32(ios, depth=32):
    """Sim backend reads kept at queue depth 32, reaped by ``probe``."""

    def run():
        engine = Engine(seed=1)
        backend = make_backend("sim", engine=engine)
        qpair = backend.alloc_qpair()
        rng = RngRegistry(1).stream("micro-io")
        pages = backend.capacity_pages
        submitted = 0
        done = 0
        while submitted < depth:
            backend.read(qpair, rng.randrange(1, pages))
            submitted += 1
        while done < ios:
            engine.run_for(10_000)
            for _ in backend.probe(qpair):
                done += 1
                if submitted < ios:
                    backend.read(qpair, rng.randrange(1, pages))
                    submitted += 1
        backend.close()

    return _median_ns_per_unit(run, ios)


def _full_leaf(config):
    leaf = Node.new_leaf(config, 7)
    count = int(config.leaf_capacity * 0.7)
    leaf.keys = [preload_key(index) for index in range(count)]
    leaf.values = [payload_for(key) for key in leaf.keys]
    return leaf


def core_ns_per_key_leaf_apply_many(rounds, group=16):
    """Vectored in-node merge of a 16-key change group into a leaf."""
    leaf = _full_leaf(TreeConfig(4096, 8))
    stride = max(1, len(leaf.keys) // group)
    changes = [
        (key + 1, payload_for(key + 1)) for key in leaf.keys[::stride][:group]
    ]

    def run():
        for _ in range(rounds):
            leaf.leaf_apply_many(changes)

    return _median_ns_per_unit(run, rounds * len(changes))


def core_ns_per_node_codec_roundtrip(rounds):
    """Leaf page ``to_bytes`` + ``from_bytes`` at bulk-load fill."""
    config = TreeConfig(4096, 8)
    leaf = _full_leaf(config)

    def run():
        for _ in range(rounds):
            Node.from_bytes(config, leaf.page_id, leaf.to_bytes())

    return _median_ns_per_unit(run, rounds)


def core_us_per_key_bulk_load(keys):
    """Offline bottom-up build of the 20 000-key tree every set-up pays."""
    items = [
        (preload_key(index), payload_for(preload_key(index)))
        for index in range(keys)
    ]

    def run():
        backend = make_backend("sim", engine=Engine(seed=1))
        PaTree.create(backend.device, payload_size=8).bulk_load(items)
        backend.close()

    return _median_ns_per_unit(run, keys) / 1000.0


def workloads_ns_per_op_generated(ops):
    """YCSB default-mix generation (Zipf draw + op object) per op."""

    def run():
        workload = YcsbWorkload(
            20_000, ops, rng=RngRegistry(1).stream("workload")
        )
        for _ in workload.operations():
            pass

    return _median_ns_per_unit(run, ops)


#: metric name -> (function, full size of its first argument)
MICROS = {
    "sim.micro_ns_per_event": (sim_ns_per_event, 100_000),
    "simos.micro_ns_per_burst_alone": (simos_ns_per_burst_alone, 60_000),
    "simos.micro_ns_per_burst_contended": (simos_ns_per_burst_contended, 1_000),
    "backend.micro_ns_per_io_qd32": (backend_ns_per_io_qd32, 10_000),
    "core.micro_ns_per_key_leaf_apply_many": (
        core_ns_per_key_leaf_apply_many, 2_000
    ),
    "core.micro_ns_per_node_codec_roundtrip": (
        core_ns_per_node_codec_roundtrip, 500
    ),
    "core.micro_us_per_key_bulk_load": (core_us_per_key_bulk_load, 20_000),
    "workloads.micro_ns_per_op_generated": (
        workloads_ns_per_op_generated, 20_000
    ),
}

#: --smoke divides every size by this
SMOKE_DIVISOR = 20


def run_all(smoke=False):
    """Every micro benchmark, at full or smoke size."""
    divisor = SMOKE_DIVISOR if smoke else 1
    return {
        name: function(size // divisor)
        for name, (function, size) in MICROS.items()
    }
