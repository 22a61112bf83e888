"""The PA-LSM store: the paper's future-work item ("applying our
polled-mode, asynchronous programming model on LSM tree is out of the
scope of this paper"), implemented on the same paradigm machinery.

The store is :class:`~repro.baselines.lsm.levels.LeveledStore` — the
structure, plans and effects the blocking LevelDB baseline runs — and
the paradigm is :class:`~repro.palsm.worker.PolledLsmWorker`'s: one
polled-mode working thread interleaves every read, WAL flush, memtable
flush and compaction as an operation state machine.

Because a single worker drives every transition, no latches or mutexes
exist anywhere: memtable rotation, table installation and level swaps
are plain-Python steps that are atomic between yields.  The only
cross-operation hazard — a lookup holding a page reference while a
compaction retires its table — is the worker's epoch quarantine.
"""

from repro.baselines.lsm.levels import OP_COMPACT, OP_FLUSH
from repro.palsm.worker import PolledLsmWorker

__all__ = ["PolledLsmWorker", "OP_FLUSH", "OP_COMPACT"]
