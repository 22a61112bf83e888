"""LevelDB-like LSM key-value store on the simulated device.

The blocking-thread paradigm over the leveled structure of
:class:`~repro.baselines.lsm.levels.LeveledStore`:

* exceeding a level's budget triggers an inline compaction paid for by
  the writing thread,
* ``sync()``: flush the WAL (strong persistence syncs per write, the
  expensive ``sync()`` behaviour the paper measures for LevelDB).

All mutation goes through a single writer mutex (LevelDB's global
mutex); reads take the mutex only to snapshot table references.
"""

from repro.baselines.lsm.levels import LeveledStore, LsmConfig
from repro.baselines.lsm.memtable import MemTable
from repro.core.ops import DELETE, INSERT, RANGE, SEARCH, SYNC, UPDATE
from repro.errors import IoError, StorageError
from repro.sim.metrics import CPU_REAL_WORK
from repro.simos.sync import Mutex


class LsmStore(LeveledStore):
    """The store shared by all baseline worker threads."""

    def __init__(self, device, io_service, config=None, persistence="strong"):
        super().__init__(device, config or LsmConfig(), persistence)
        self.io = io_service
        self._write_mutex = Mutex("lsm-write")
        self._cache_mutex = Mutex("lsm-cache")

    # ------------------------------------------------------------------
    # blocking page I/O (reads through the block cache)
    # ------------------------------------------------------------------

    def _read_page(self, tls, lba):
        simos = tls.simos
        simos.sem_wait(self._cache_mutex) or (yield)
        data = self.cache.get(lba)
        simos.sem_post(self._cache_mutex) or (yield)
        if data is not None:
            return data
        data = yield from self.io.read(tls, lba)
        simos.sem_wait(self._cache_mutex) or (yield)
        self.cache.put(lba, data)
        simos.sem_post(self._cache_mutex) or (yield)
        return data

    def _write_pages(self, tls, pages):
        for lba, image in pages:
            yield from self.io.write(tls, lba, image)

    def _flush_wal(self, tls, include_partial):
        writes, flush_lsn = self.wal.take_flushable(include_partial)
        yield from self._write_pages(tls, writes)
        self.wal.mark_durable(flush_lsn)
        return len(writes)

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def _apply(self, tls, op_key, value):
        """Shared insert/update/delete path (holds the writer mutex)."""
        simos = tls.simos
        simos.sem_wait(self._write_mutex) or (yield)
        simos.cpu(self.apply_cost_ns, CPU_REAL_WORK) or (yield)
        self._log_and_apply(op_key, value)
        try:
            yield from self._flush_wal(tls, self.persistence == "strong")
            if len(self.memtable) >= self.config.memtable_entries:
                yield from self._flush_memtable(tls)
                yield from self._maybe_compact(tls)
        except IoError:
            # the next writer must not wait for a mutex nobody holds
            simos.sem_post(self._write_mutex) or (yield)
            raise
        simos.sem_post(self._write_mutex) or (yield)

    def _flush_memtable(self, tls):
        items = self.memtable.sorted_items()
        self.flushes += 1
        table, pages = self._plan_table(items)
        cost = len(items) * self.merge_cost_ns_per_entry
        tls.simos.cpu(cost, CPU_REAL_WORK) or (yield)
        yield from self._write_pages(tls, pages)
        self.levels[0].insert(0, table)
        self.memtable = MemTable()

    def _maybe_compact(self, tls):
        """Compact while any level exceeds its budget (inline)."""
        while self._over_budget(0):
            yield from self._compact_level(tls, 0)
        level = 1
        while level < len(self.levels):
            if self._over_budget(level):
                yield from self._compact_level(tls, level)
            level += 1

    def _compact_level(self, tls, level):
        """Merge one level's pick with the overlapping next-level runs."""
        picked, below = self._pick_compaction(level)
        sources = picked + below
        image_for = {}
        for source in reversed(sources):  # one blocking read at a time
            for lba in source.page_lbas:
                image_for[lba] = yield from self._read_page(tls, lba)
        items = self._merged_items(level, sources, image_for)
        cost = len(items) * self.merge_cost_ns_per_entry
        tls.simos.cpu(cost, CPU_REAL_WORK) or (yield)
        merged, pages = self._plan_tables(items)
        yield from self._write_pages(tls, pages)
        self._free_pages(self._swap(level, picked, below, merged))

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def _locked_snapshot(self, tls):
        """References to the current memtable and table lists."""
        simos = tls.simos
        simos.sem_wait(self._write_mutex) or (yield)
        memtable, levels = self.memtable, self._snapshot()
        simos.sem_post(self._write_mutex) or (yield)
        simos.cpu(self.apply_cost_ns, CPU_REAL_WORK) or (yield)
        return memtable, levels

    def get(self, tls, key):
        memtable, levels = yield from self._locked_snapshot(tls)
        found, value = memtable.get(key)
        if found:
            return value
        for lba in self._lookup_candidates(levels, key):
            image = yield from self._read_page(tls, lba)
            found, value = self._page_lookup(image, key)
            if found:
                return value
        return None

    def range(self, tls, low, high, limit=0):
        memtable, levels = yield from self._locked_snapshot(tls)
        images = []
        for lbas in self._scan_runs(levels, low, high):
            for lba in lbas:
                images.append((yield from self._read_page(tls, lba)))
        return self._scan_result(images, [memtable], low, high, limit)

    # ------------------------------------------------------------------
    # sync
    # ------------------------------------------------------------------

    def sync(self, tls):
        simos = tls.simos
        simos.sem_wait(self._write_mutex) or (yield)
        try:
            flushed = yield from self._flush_wal(tls, include_partial=True)
        except IoError:
            simos.sem_post(self._write_mutex) or (yield)
            raise
        simos.sem_post(self._write_mutex) or (yield)
        return flushed


class LsmAccessor:
    """Adapts :class:`LsmStore` to the BaselineRunner operation API."""

    def __init__(self, store):
        self.store = store
        self.io = store.io

    def execute(self, tls, op):
        store = self.store
        if op.kind == SEARCH:
            op.result = yield from store.get(tls, op.key)
        elif op.kind == RANGE:
            op.result = yield from store.range(tls, op.key, op.high_key, op.limit)
        elif op.kind in (INSERT, UPDATE):
            yield from store._apply(tls, op.key, op.payload)
            op.result = True
        elif op.kind == DELETE:
            yield from store._apply(tls, op.key, None)
            op.result = True
        elif op.kind == SYNC:
            op.result = yield from store.sync(tls)
        else:
            raise StorageError("unknown operation kind %r" % (op.kind,))
