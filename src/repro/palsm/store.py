"""Asynchronous LSM store state and operation plans.

The paper's future-work item ("applying our polled-mode, asynchronous
programming model on LSM tree is out of the scope of this paper"),
implemented: a LevelDB-shaped store — active + immutable memtables,
WAL, leveled SSTables with Bloom filters and a block cache — whose
reads, WAL flushes, memtable flushes and compactions are all operation
state machines interleaved by one polled-mode working thread.  The
structure itself (levels, merge, table cutting, read walks) is
:class:`~repro.baselines.lsm.levels.LeveledStore`, shared with the
blocking baseline; this module adds only the paradigm: the effects,
immutable memtables and rotation, the scheduled maintenance plans and
the epoch quarantine.

Because a single worker drives every transition, no latches or mutexes
exist anywhere: memtable rotation, table installation and level swaps
are plain-Python steps that are atomic between yields.  The only
cross-operation hazard — a lookup holding a page reference while a
compaction retires its table — is handled with an epoch quarantine:
pages of dropped tables are only returned to the allocator once every
operation admitted before the swap has completed.

Plans yield the effects consumed by
:class:`repro.palsm.worker.PolledLsmWorker`:

* ``ReadPageEff(lba)``        — one page, through the block cache,
* ``ReadBatchEff(lbas)``      — many pages concurrently (compaction
                                 fan-out: the paradigm's advantage),
* ``WriteBatchEff(pages)``    — write and wait for completion,
* ``BackgroundWriteEff(pages)`` — write without waiting (group-commit
                                 WAL flushes),
* ``ChargeEff(ns, category)`` — CPU accounting.
"""

from repro.baselines.lsm.levels import LeveledStore, LsmConfig
from repro.baselines.lsm.memtable import MemTable
from repro.core.ops import (
    ChargeEff,
    DELETE,
    INSERT,
    Operation,
    RANGE,
    SEARCH,
    SYNC,
    UPDATE,
)
from repro.errors import TreeError
from repro.sim.clock import usec
from repro.sim.metrics import CPU_REAL_WORK

OP_FLUSH = "lsm_flush"
OP_COMPACT = "lsm_compact"


class ReadPageEff:
    __slots__ = ("lba",)

    def __init__(self, lba):
        self.lba = lba


class ReadBatchEff:
    __slots__ = ("lbas",)

    def __init__(self, lbas):
        self.lbas = list(lbas)


class WriteBatchEff:
    __slots__ = ("pages",)

    def __init__(self, pages):
        self.pages = list(pages)  # (lba, image)


class BackgroundWriteEff:
    __slots__ = ("pages", "on_complete")

    def __init__(self, pages, on_complete=None):
        self.pages = list(pages)
        self.on_complete = on_complete


class AsyncLsmStore(LeveledStore):
    """Shared state of the polled-mode asynchronous LSM store."""

    def __init__(self, device, persistence="strong", **shape):
        """``shape``: the :class:`LsmConfig` knobs, by keyword."""
        super().__init__(device, LsmConfig(**shape), persistence)
        self.immutables = []  # rotated memtables awaiting flush, newest first
        self._flush_scheduled = False
        self._compact_scheduled = False
        self._pending_frees = []  # (barrier_seq, [lbas])
        # hooks the worker installs
        self.enqueue_internal = None  # fn(op)
        self.next_seq = lambda: 0
        self.probe_cost_ns = usec(0.3)

    # ------------------------------------------------------------------
    # epoch quarantine for freed pages
    # ------------------------------------------------------------------

    def defer_free(self, lbas):
        self._pending_frees.append((self.next_seq(), lbas))

    def release_frees(self, min_active_seq):
        """Free quarantined pages once no pre-swap operation remains."""
        kept = []
        for barrier, lbas in self._pending_frees:
            if min_active_seq > barrier:
                self._free_pages(lbas)
            else:
                kept.append((barrier, lbas))
        self._pending_frees = kept

    # ------------------------------------------------------------------
    # plan factory
    # ------------------------------------------------------------------

    def make_plan(self, op):
        if op.kind == SEARCH:
            return self._get_plan(op)
        if op.kind == RANGE:
            return self._range_plan(op)
        if op.kind in (INSERT, UPDATE):
            return self._put_plan(op, op.payload)
        if op.kind == DELETE:
            return self._put_plan(op, None)
        if op.kind == SYNC:
            return self._sync_plan(op)
        if op.kind == OP_FLUSH:
            return self._flush_plan(op)
        if op.kind == OP_COMPACT:
            return self._compact_plan(op)
        raise TreeError("unknown operation kind %r" % (op.kind,))

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def _memory_lookup(self, key):
        for memtable in [self.memtable] + self.immutables:
            found, value = memtable.get(key)
            if found:
                return True, value
        return False, None

    def _get_plan(self, op):
        yield ChargeEff(self.apply_cost_ns, CPU_REAL_WORK)
        key = op.key
        found, value = self._memory_lookup(key)
        if not found:
            # walk a snapshot of the table lists: a compaction
            # interleaved between our yields mutates them in place, and
            # the epoch quarantine keeps every snapshotted table's
            # pages readable until we complete
            for lba in self._lookup_candidates(self._snapshot(), key):
                yield ChargeEff(self.probe_cost_ns, CPU_REAL_WORK)
                image = yield ReadPageEff(lba)
                found, value = self._page_lookup(image, key)
                if found:
                    break
        op.result = value

    def _range_plan(self, op):
        yield ChargeEff(self.apply_cost_ns, CPU_REAL_WORK)
        low, high = op.key, op.high_key
        # snapshots as in _get_plan; the memtables stay readable after
        # their flush retires them
        memtables = self.immutables[::-1]  # oldest first
        images = []
        for lbas in self._scan_runs(self._snapshot(), low, high):
            images.extend((yield ReadBatchEff(lbas)))
        memtables.append(self.memtable)  # the active one once the reads are in
        op.result = self._scan_result(images, memtables, low, high, op.limit)

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def _put_plan(self, op, value):
        yield ChargeEff(self.apply_cost_ns, CPU_REAL_WORK)
        self._log_and_apply(op.key, value)
        if self.persistence == "strong":
            yield from self._flush_wal()
        else:
            writes, flush_lsn = self.wal.take_flushable(False)
            if writes:
                # group commit: flush sealed log pages without blocking
                # this operation; durability is acknowledged when the
                # batch completes (batches may overlap, so this can
                # over-claim by one in-flight batch -- acceptable for
                # weak persistence, documented in DESIGN.md)
                yield BackgroundWriteEff(
                    writes, lambda lsn=flush_lsn: self.wal.mark_durable(lsn)
                )
        op.result = True
        self._maybe_rotate()

    def _maybe_rotate(self):
        if len(self.memtable) < self.config.memtable_entries:
            return
        self.immutables.insert(0, self.memtable)
        self.memtable = MemTable()
        if not self._flush_scheduled:
            self._flush_scheduled = True
            self.enqueue_internal(Operation(OP_FLUSH))

    def _flush_wal(self):
        """Write every pending log page and wait; returns the count."""
        writes, flush_lsn = self.wal.take_flushable(True)
        if writes:
            yield WriteBatchEff(writes)
            self.wal.mark_durable(flush_lsn)
        return len(writes)

    def _sync_plan(self, op):
        op.result = yield from self._flush_wal()

    # ------------------------------------------------------------------
    # internal maintenance operations
    # ------------------------------------------------------------------

    def _flush_plan(self, op):
        # _flush_scheduled stays True for the whole plan so rotations
        # that happen while a table write is in flight do not enqueue a
        # second, racing flush; this plan drains them all.
        while self.immutables:
            memtable = self.immutables[-1]  # oldest first
            items = memtable.sorted_items()
            self.flushes += 1
            yield ChargeEff(
                len(items) * self.merge_cost_ns_per_entry, CPU_REAL_WORK
            )
            table, pages = self._plan_table(items)
            yield WriteBatchEff(pages)  # all pages in flight concurrently
            # install, then retire the memtable (it stayed readable for
            # lookups while its table was being written)
            self.levels[0].insert(0, table)
            self.immutables.remove(memtable)
        self._flush_scheduled = False
        if self._over_budget(0) and not self._compact_scheduled:
            self._compact_scheduled = True
            self.enqueue_internal(Operation(OP_COMPACT))
        op.result = True

    def _compact_plan(self, op):
        # the guard stays True for the whole plan (see _flush_plan):
        # a flush finishing mid-compaction must not start a second,
        # racing compaction over the same tables
        level = 0
        while level < len(self.levels):
            if self._over_budget(level):
                yield from self._compact_level(level)
                level = 0  # restart from the top after every compaction
            else:
                level += 1
        self._compact_scheduled = False
        op.result = True

    def _compact_level(self, level):
        picked, below = self._pick_compaction(level)
        sources = picked + below
        # read every source page concurrently -- the paradigm's win
        all_lbas = [lba for table in sources for lba in table.page_lbas]
        images = yield ReadBatchEff(all_lbas)
        items = self._merged_items(level, sources, dict(zip(all_lbas, images)))
        yield ChargeEff(len(items) * self.merge_cost_ns_per_entry, CPU_REAL_WORK)
        merged, pages = self._plan_tables(items)
        if pages:
            yield WriteBatchEff(pages)
        # atomic swap (single worker: no reader can interleave here)
        self.defer_free(self._swap(level, picked, below, merged))
