"""Batch pipeline — vectored ops/sec versus batch size.

The batch-first session API plans a whole key vector as one operation:
keys are sorted once, grouped by target leaf during a single shared
descent, each leaf latch is acquired once per group, groups apply as
vectored in-node operations and sibling page writes coalesce into
vectored device commands.  This exhibit sweeps the batch size over the
same deterministic mixed key stream (50% put / 30% get / 20% delete)
and reports aggregate virtual-time throughput: size-1 batches are the
single-op code path, so the curve *is* the amortization — latch
round-trips, descents and doorbells shared across a group instead of
paid per key.

The tree is preloaded sparsely (every eighth key of the keyspace) so
batches of 64+ keys span several leaves: group sizes stay realistic
rather than degenerating into one giant single-leaf group.
"""

from repro.api import PATreeSession
from repro.bench.report import print_table
from repro.core.ops import OpSpec, batch_op
from repro.sim.clock import NS_PER_SEC
from repro.sim.rng import RngRegistry

TITLE = "Batch pipeline: vectored ops/sec vs batch size"

#: Specs in the stream every sweep point executes.
OPS = 2_048

BATCH_SIZES = (1, 8, 64, 256)

#: Keyspace and preload stride: 1024 candidate keys, 128 preloaded.
#: Sized so a 64-key batch averages several keys per leaf group (the
#: amortization the exhibit measures) while still spanning many leaves.
KEYSPACE = 1_024
PRELOAD_STRIDE = 8

#: Closed-loop window of in-flight batch operations.
WINDOW = 8
PAYLOAD_SIZE = 8


def make_specs(n_specs, seed):
    """The deterministic mixed spec stream shared by every sweep point."""
    rng = RngRegistry(seed).stream("batch-sweep")
    specs = []
    for _ in range(n_specs):
        key = rng.randrange(1, KEYSPACE)
        roll = rng.random()
        if roll < 0.5:
            specs.append(OpSpec.put(key, key.to_bytes(PAYLOAD_SIZE, "little")))
        elif roll < 0.8:
            specs.append(OpSpec.get(key))
        else:
            specs.append(OpSpec.delete(key))
    return specs


def run_batch_size(batch_size, n_specs=OPS, seed=1):
    """One sweep point: the whole spec stream in ``batch_size`` chunks."""
    with PATreeSession(
        seed=seed, payload_size=PAYLOAD_SIZE, scheduler="naive", window=WINDOW
    ) as session:
        session.bulk_load(
            (key, key.to_bytes(PAYLOAD_SIZE, "little"))
            for key in range(1, KEYSPACE, PRELOAD_STRIDE)
        )
        specs = make_specs(n_specs, seed)
        operations = [
            batch_op(specs[start:start + batch_size])
            for start in range(0, len(specs), batch_size)
        ]
        session.execute(operations)
        session.validate()
        stats = session.stats()
        elapsed_ns = (
            session.pa_engine.last_user_done_ns or session.env.engine.now
        )
    elapsed_s = elapsed_ns / NS_PER_SEC if elapsed_ns else 1.0
    groups = stats["batch_groups"]
    return {
        "batch_size": batch_size,
        "specs": n_specs,
        "batches": len(operations),
        "groups": groups,
        "mean_group_size": stats["batch_keys"] / groups if groups else 0.0,
        "elapsed_s": elapsed_s,
        "throughput_ops": n_specs / elapsed_s,
        "mean_latency_us": stats["mean_latency_us"],
        "device_reads": stats["device_reads"],
        "device_writes": stats["device_writes"],
        "coalesced_writes": stats["coalesced_writes"],
        "latch_waits": stats["latch_waits"],
    }


def run(ops=OPS, seed=1):
    rows = []
    base = None
    for batch_size in BATCH_SIZES:
        row = run_batch_size(batch_size, n_specs=ops, seed=seed)
        if base is None:
            base = row["throughput_ops"] or 1.0
        row["speedup"] = row["throughput_ops"] / base
        rows.append(row)
    return rows


def render(rows, out=print):
    columns = [
        ("batch", "batch_size"),
        ("specs", "specs"),
        ("groups", "groups"),
        ("keys/group", "mean_group_size"),
        ("ops/s", "throughput_ops"),
        ("speedup", "speedup"),
        ("mean lat (us)", "mean_latency_us"),
        ("dev reads", "device_reads"),
        ("dev writes", "device_writes"),
        ("coalesced", "coalesced_writes"),
    ]
    print_table(TITLE, columns, rows, out=out)
