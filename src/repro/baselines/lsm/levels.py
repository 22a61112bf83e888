"""The leveled LSM, independent of the I/O paradigm: structure and plans.

A LevelDB-shaped store is the same data structure whether blocking
threads or one polled worker drive it:

* an active :class:`MemTable` fronted by a write-ahead log, and the
  full memtables rotated out of it that await their flush,
* level 0: memtable flushes (tables may overlap; newest first),
* levels 1+: non-overlapping runs sorted by ``min_key``, each level
  :data:`LEVEL_RATIO` times the previous one's table budget; a level
  over budget is compacted into the next,
* an in-memory block cache for data pages.

:class:`LeveledStore` owns that state, every pure step over it and the
one LSM algorithm: each operation — get, range, put / delete, ``sync``
and the two maintenance operations, memtable flush and compaction — is
a plan, a generator yielding effects.  Two interpreters serve them:
:class:`repro.palsm.worker.PolledLsmWorker` interleaves the plans on one
polled worker (the PA-LSM extension) and
:class:`repro.baselines.lsm.store.LsmStore` runs each on the calling
blocking thread (the LevelDB baseline).  The plans speak the tree's
effect vocabulary (:mod:`repro.core.ops`):

* ``ReadEff(lba)``              — one page image, through the block cache,
* ``ReadManyEff(lbas)``         — many page images (all in flight at
                                   once when polled: the paradigm's
                                   advantage),
* ``WriteEff(pages=...)``       — write raw pages and wait; with
                                   ``on_durable`` the WAL group commit,
                                   which a polled operation does not
                                   wait for,
* ``MaintainEff(op)``           — run a flush / compaction operation:
                                   admitted on its own when polled, run
                                   inline by the writing thread when
                                   blocking,
* ``RetireEff(lbas)``           — pages of the tables a compaction
                                   dropped: quarantined until every
                                   earlier operation is done when
                                   polled, freed at once when blocking
                                   unless a read is in flight,
* ``ChargeEff(ns, category)``   — CPU accounting.

A plan is atomic between its yields, and a read takes everything it
walks before its first one (the blocking store holds its writer mutex
for exactly that step).
"""

from repro.baselines.lsm.memtable import MemTable
from repro.baselines.lsm.sstable import SSTable, decode_page, scan_page
from repro.buffer.lru import LruCache
from repro.core.ops import (
    ChargeEff,
    DELETE,
    INSERT,
    MaintainEff,
    Operation,
    RANGE,
    ReadEff,
    ReadManyEff,
    RetireEff,
    SEARCH,
    SYNC,
    UPDATE,
    WriteEff,
)
from repro.errors import StorageError, TreeError
from repro.sim.clock import usec
from repro.sim.metrics import CPU_REAL_WORK
from repro.storage.allocator import PageAllocator
from repro.storage.wal import WriteAheadLog

OP_FLUSH = "lsm_flush"
OP_COMPACT = "lsm_compact"

def _runs_starting_by(tables, key):
    """How many of ``tables`` (sorted by ``min_key``) start at or
    before ``key``: ``bisect_right`` over their ``min_key``s."""
    lo, hi = 0, len(tables)
    while lo < hi:
        mid = (lo + hi) // 2
        if key < tables[mid].min_key:
            hi = mid
        else:
            lo = mid + 1
    return lo


#: Table budget of each level past the first, relative to the one above.
LEVEL_RATIO = 4


class LsmConfig:
    """Shape knobs (scaled-down LevelDB defaults)."""

    __slots__ = (
        "memtable_entries",
        "level0_limit",
        "level1_tables",
        "block_cache_pages",
        "wal_pages",
    )

    def __init__(
        self,
        memtable_entries=1_000,
        level0_limit=4,
        level1_tables=8,
        block_cache_pages=1_024,
        wal_pages=65_536,
    ):
        if memtable_entries < 1:
            raise StorageError(
                "memtable_entries must be at least 1, not %r" % (memtable_entries,)
            )
        self.memtable_entries = memtable_entries
        self.level0_limit = level0_limit
        self.level1_tables = level1_tables
        self.block_cache_pages = block_cache_pages
        self.wal_pages = wal_pages


class LeveledStore:
    """State, pure structure steps and operation plans of both LSM stores."""

    def __init__(self, device, config=None, persistence="strong"):
        config = config or LsmConfig()
        if persistence not in ("strong", "weak"):
            raise TreeError("unknown persistence %r" % (persistence,))
        self.device = device
        self.config = config
        self.persistence = persistence
        self.page_size = device.profile.page_size
        self.wal = WriteAheadLog(
            self.page_size, base_lba=1, num_pages=config.wal_pages
        )
        self.allocator = PageAllocator(
            base=1 + config.wal_pages,
            capacity=device.profile.capacity_pages - 1 - config.wal_pages,
        )
        self.memtable = MemTable()  # the active (mutable) one
        self.immutables = []  # rotated memtables awaiting flush, newest first
        # levels[0] newest-first, levels[i>=1] sorted by min_key; each
        # list is replaced on change, never edited, so reads share them
        self.levels = [[]]
        self.cache = LruCache(config.block_cache_pages)
        self.flushes = 0
        self.compactions = 0
        # a flush / compaction asked for and not finished yet: a second
        # one would race it over the same memtables or tables
        self._flush_scheduled = False
        self._compact_scheduled = False
        # CPU cost constants (same scale as the tree cost model)
        self.apply_cost_ns = usec(0.5)
        self.probe_cost_ns = usec(0.3)  # per table a lookup reads
        self.merge_cost_ns_per_entry = usec(0.05)

    # ------------------------------------------------------------------
    # offline bulk load (zero time, like an offline DB build)
    # ------------------------------------------------------------------

    def bulk_load(self, items):
        """Build level-1 runs directly from sorted unique items."""
        items = list(items)
        if not items:
            return
        if any(items[i][0] >= items[i + 1][0] for i in range(len(items) - 1)):
            raise StorageError("bulk_load input must be sorted and unique")
        while len(self.levels) < 2:
            self.levels.append([])
        low, high = items[0][0], items[-1][0]
        for table in self.levels[1]:
            if table.overlaps(low, high):
                # level-1 runs must stay disjoint: lookups bisect them
                raise StorageError(
                    "bulk_load keys [%d..%d] overlap level-1 run %r"
                    % (low, high, table)
                )
        tables, pages = self._plan_tables(items)
        for lba, image in pages:
            self.device.raw_write(lba, image)
        self.levels[1] = sorted(
            self.levels[1] + tables, key=lambda table: table.min_key
        )

    def data_pages(self):
        """Pages currently owned by SSTables (for cache sizing)."""
        return sum(
            len(table.page_lbas) for level in self.levels for table in level
        )

    def resize_block_cache(self, pages):
        """Resize the block cache (e.g. to 10 % of the loaded store)."""
        self.cache = LruCache(max(pages, 8))

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

    def _read_view(self):
        """What a read walks: the memtables, newest first, and the table
        lists as they stand.  A memtable stays readable after its flush
        retires it, a table after a compaction drops it."""
        return [self.memtable] + self.immutables, self._snapshot()

    def _get_plan(self, op):
        key = op.key
        memtables, levels = self._read_view()
        yield ChargeEff(self.apply_cost_ns, CPU_REAL_WORK)
        for memtable in memtables:
            found, value = memtable.get(key)
            if found:
                break
        else:
            for lba in self._lookup_candidates(levels, key):
                yield ChargeEff(self.probe_cost_ns, CPU_REAL_WORK)
                image = yield ReadEff(lba)
                entries = scan_page(image, key, key)
                if entries:
                    value = entries[0][1]
                    break
        op.result = value

    def _range_plan(self, op):
        low, high = op.key, op.high_key
        memtables, levels = self._read_view()
        yield ChargeEff(self.apply_cost_ns, CPU_REAL_WORK)
        images = []
        for lbas in self._scan_runs(levels, low, high):
            images.extend((yield ReadManyEff(lbas)))
        op.result = self._scan_result(
            images, memtables[::-1], low, high, op.limit
        )

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
                # group commit: durability is acknowledged when the
                # batch completes (polled batches may overlap, so this
                # can over-claim by one in-flight batch -- acceptable
                # for weak persistence, documented in DESIGN.md)
                yield WriteEff(
                    pages=writes,
                    on_durable=lambda lsn=flush_lsn: self.wal.mark_durable(lsn),
                )
        if len(self.memtable) >= self.config.memtable_entries:
            # rotate; the memtable stays readable until its table is in
            self.immutables.insert(0, self.memtable)
            self.memtable = MemTable()
            if not self._flush_scheduled:
                self._flush_scheduled = True
                yield MaintainEff(Operation(OP_FLUSH))
        op.result = True

    def _flush_wal(self):
        """Write every pending log page and wait; returns the count."""
        writes, flush_lsn = self.wal.take_flushable(True)
        if writes:
            yield WriteEff(pages=writes)
            self.wal.mark_durable(flush_lsn)
        return len(writes)

    def _sync_plan(self, op):
        op.result = yield from self._flush_wal()

    # ------------------------------------------------------------------
    # maintenance operations
    # ------------------------------------------------------------------

    def _flush_plan(self, op):
        # _flush_scheduled stays True for the whole plan so rotations
        # that happen while a table write is in flight do not start a
        # second, racing flush; this plan drains them all.  An aborted
        # flush leaves its memtables to the next one.
        try:
            while self.immutables:
                memtable = self.immutables[-1]  # oldest first
                items = memtable.sorted_items()
                self.flushes += 1
                yield ChargeEff(
                    len(items) * self.merge_cost_ns_per_entry, CPU_REAL_WORK
                )
                table, pages = self._plan_table(items)
                yield WriteEff(pages=pages)
                # install, then retire the memtable (it stayed readable
                # for lookups while its table was being written)
                self.levels[0] = [table] + self.levels[0]
                self.immutables.remove(memtable)
        finally:
            self._flush_scheduled = False
        if not self._compact_scheduled and self._needs_compaction():
            self._compact_scheduled = True
            yield MaintainEff(Operation(OP_COMPACT))
        op.result = True

    def _compact_plan(self, op):
        # the guard stays True for the whole plan (see _flush_plan): a
        # flush finishing mid-compaction must not start a second,
        # racing compaction over the same tables
        try:
            level = 0
            while level < len(self.levels):
                if self._over_budget(level):
                    yield from self._compact_level(level)
                    level = 0  # restart from the top after every compaction
                else:
                    level += 1
        finally:
            self._compact_scheduled = False
        op.result = True

    def _compact_level(self, level):
        picked, below = self._pick_compaction(level)
        sources = picked + below
        all_lbas = [lba for table in sources for lba in table.page_lbas]
        images = yield ReadManyEff(all_lbas)
        items = self._merged_items(level, sources, dict(zip(all_lbas, images)))
        yield ChargeEff(len(items) * self.merge_cost_ns_per_entry, CPU_REAL_WORK)
        merged, pages = self._plan_tables(items)
        if pages:
            yield WriteEff(pages=pages)
        yield RetireEff(self._swap(level, picked, below, merged))

    # ------------------------------------------------------------------
    # WAL + memtable, table cutting, page retirement
    # ------------------------------------------------------------------

    def _log_and_apply(self, key, value):
        """Log one upsert (or delete, ``value`` None) and apply it to
        the active memtable."""
        if value is None:
            self.wal.append(b"D" + key.to_bytes(8, "little"))
            self.memtable.delete(key)
        else:
            self.wal.append(b"P" + key.to_bytes(8, "little") + value)
            self.memtable.put(key, value)

    def _plan_table(self, items):
        """One table holding all of ``items`` (a memtable flush), its
        LBAs allocated: ``(table, [(lba, image)])`` ready to write."""
        table, images = SSTable.plan(self.page_size, items)
        pages = []
        for index, image in enumerate(images):
            lba = self.allocator.allocate()
            table.page_lbas[index] = lba
            pages.append((lba, image))
        return table, pages

    def _plan_tables(self, items):
        """``items`` cut into tables of ``memtable_entries`` each
        (compaction output, bulk load): ``(tables, [(lba, image)])``."""
        tables = []
        pages = []
        chunk_size = self.config.memtable_entries
        for start in range(0, len(items), chunk_size):
            table, table_pages = self._plan_table(items[start:start + chunk_size])
            tables.append(table)
            pages.extend(table_pages)
        return tables, pages

    def free_pages(self, lbas):
        """Return retired table pages to the allocator."""
        for lba in lbas:
            self.allocator.free(lba)
            self.cache.pop(lba)

    # ------------------------------------------------------------------
    # compaction steps
    # ------------------------------------------------------------------

    def _needs_compaction(self):
        """LevelDB's trigger, asked after every flush: some level is
        over its budget (L0 by table count, the others by runs)."""
        return any(self._over_budget(level) for level in range(len(self.levels)))

    def _over_budget(self, level):
        if level == 0:
            return len(self.levels[0]) > self.config.level0_limit
        budget = self.config.level1_tables * LEVEL_RATIO ** (level - 1)
        return len(self.levels[level]) > budget

    def _pick_compaction(self, level):
        """Start compacting ``level``: the tables to merge there and
        the next level's runs they overlap, ``(picked, below)``."""
        self.compactions += 1
        if len(self.levels) <= level + 1:
            self.levels.append([])
        if level == 0:
            picked = list(self.levels[0])  # all of L0 (they overlap)
        else:
            picked = [self.levels[level][0]]  # oldest/first run
        low = min(table.min_key for table in picked)
        high = max(table.max_key for table in picked)
        below = [
            table for table in self.levels[level + 1] if table.overlaps(low, high)
        ]
        return picked, below

    def _merged_items(self, level, sources, image_for):
        """K-way merge of ``sources`` (newest first; ``image_for`` maps
        each of their LBAs to its page image): the newest version of a
        key wins, tombstones drop at the bottom level."""
        entries = {}
        for source in reversed(sources):  # oldest first; newer overwrite
            for lba in source.page_lbas:
                for key, value in decode_page(image_for[lba]):
                    entries[key] = value
        items = sorted(entries.items())
        if level + 2 == len(self.levels) and not self.levels[level + 1]:
            items = [(k, v) for k, v in items if v is not None]
        return items

    def _swap(self, level, picked, below, merged):
        """Replace the compacted tables by ``merged`` in the next
        level; returns the retired tables' LBAs (picked first)."""
        levels = self.levels
        levels[level] = [t for t in levels[level] if t not in picked]
        levels[level + 1] = sorted(
            [t for t in levels[level + 1] if t not in below] + merged,
            key=lambda table: table.min_key,
        )
        return [lba for table in picked + below for lba in table.page_lbas]

    # ------------------------------------------------------------------
    # read walks over a snapshot of the table lists
    # ------------------------------------------------------------------

    def _snapshot(self):
        """The table lists as they stand: flushes and compactions
        replace a level's list rather than change it in place."""
        return list(self.levels)

    @staticmethod
    def _lookup_candidates(levels, key):
        """LBA of the one page per table that may hold ``key`` (key
        range, then Bloom filter), newest table first.  Level 0's tables
        overlap and are scanned; a deeper level's runs are disjoint and
        sorted by ``min_key``, so only the last one starting at or
        before ``key`` can hold it."""
        for table in levels[0]:
            if table.min_key <= key <= table.max_key and table.bloom.may_contain(key):
                yield table.page_lbas[table.page_index_for(key)]
        for index in range(1, len(levels)):
            tables = levels[index]
            at = _runs_starting_by(tables, key) - 1
            if at >= 0:
                table = tables[at]
                if key <= table.max_key and table.bloom.may_contain(key):
                    yield table.page_lbas[table.page_index_for(key)]

    @staticmethod
    def _scan_runs(levels, low, high):
        """The page-LBA run of every table overlapping ``[low, high]``,
        oldest table first."""
        for tables in reversed(levels):
            for table in reversed(tables):
                if table.overlaps(low, high):
                    start, end = table.page_range_for(low, high)
                    lbas = table.page_lbas[start:end]
                    if lbas:
                        yield lbas

    @staticmethod
    def _scan_result(images, memtables, low, high, limit):
        """Overlay page ``images`` then ``memtables`` (both oldest
        first, so newer versions overwrite), drop tombstones, cut to
        ``limit``."""
        merged = {}
        for image in images:
            merged.update(scan_page(image, low, high))
        for memtable in memtables:
            merged.update(memtable.range_items(low, high))
        results = [(k, v) for k, v in sorted(merged.items()) if v is not None]
        return results[:limit] if limit else results
