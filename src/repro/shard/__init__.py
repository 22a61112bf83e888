"""Sharded PA-Tree: the one multi-worker router (scale-out and scale-up).

The paper saturates one NVMe SSD with one polled working thread and
sketches "one or a few working threads".  This package is that seam: N
independent ``(PaTree, PaTreeEngine, queue pair)`` shards on one
simulated machine, each driven by its own polled worker, behind a
single routing front door — on a device each (a backend spec) or all on
one shared device's disjoint LBA regions (a built backend).
"""

from repro.shard.sharded import (
    HASH_PARTITIONING,
    RANGE_PARTITIONING,
    ShardedPaTree,
    shard_mix64,
)

__all__ = [
    "ShardedPaTree",
    "HASH_PARTITIONING",
    "RANGE_PARTITIONING",
    "shard_mix64",
]
