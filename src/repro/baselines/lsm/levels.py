"""The leveled-LSM structure, independent of the I/O paradigm.

A LevelDB-shaped store is the same data structure whether blocking
threads or one polled worker drive it:

* an active :class:`MemTable` fronted by a write-ahead log,
* level 0: memtable flushes (tables may overlap; newest first),
* levels 1+: non-overlapping runs sorted by ``min_key``, each level
  ``level_ratio`` times the previous one's table budget; a level over
  budget is compacted into the next,
* an in-memory block cache for data pages.

:class:`LeveledStore` owns that state and every *pure* step over it —
nothing here yields, charges CPU or takes a mutex.  The two paradigms
subclass it and add only how pages are read and written and when
maintenance runs: :class:`repro.baselines.lsm.store.LsmStore`
(blocking threads, inline flush and compaction under a writer mutex)
and :class:`repro.palsm.store.AsyncLsmStore` (operation plans
interleaved by one polled worker).
"""

from repro.baselines.lsm.memtable import MemTable
from repro.baselines.lsm.sstable import SSTable, decode_page
from repro.buffer.lru import LruCache
from repro.errors import StorageError, TreeError
from repro.sim.clock import usec
from repro.storage.allocator import PageAllocator
from repro.storage.wal import WriteAheadLog


class LsmConfig:
    """Shape knobs (scaled-down LevelDB defaults)."""

    __slots__ = (
        "memtable_entries",
        "level0_limit",
        "level_ratio",
        "level1_tables",
        "block_cache_pages",
        "wal_pages",
    )

    def __init__(
        self,
        memtable_entries=1_000,
        level0_limit=4,
        level_ratio=4,
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
        self.level_ratio = level_ratio
        self.level1_tables = level1_tables
        self.block_cache_pages = block_cache_pages
        self.wal_pages = wal_pages


class LeveledStore:
    """State and pure structure steps shared by both LSM stores."""

    def __init__(self, device, config, persistence):
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
        self.levels = [[]]  # levels[0] newest-first; levels[i>=1] sorted by min_key
        self.cache = LruCache(config.block_cache_pages)
        self.flushes = 0
        self.compactions = 0
        # CPU cost constants (same scale as the tree cost model)
        self.apply_cost_ns = usec(0.5)
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
        tables, pages = self._plan_tables(items)
        for lba, image in pages:
            self.device.raw_write(lba, image)
        self.levels[1].extend(tables)
        self.levels[1].sort(key=lambda table: table.min_key)

    def data_pages(self):
        """Pages currently owned by SSTables (for cache sizing)."""
        return sum(
            len(table.page_lbas) for level in self.levels for table in level
        )

    def resize_block_cache(self, pages):
        """Resize the block cache (e.g. to 10 % of the loaded store)."""
        self.cache = LruCache(max(pages, 8))

    # ------------------------------------------------------------------
    # writes: WAL + memtable, table cutting, page retirement
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

    def _free_pages(self, lbas):
        """Return retired table pages to the allocator."""
        for lba in lbas:
            self.allocator.free(lba)
            self.cache.pop(lba)

    # ------------------------------------------------------------------
    # compaction steps
    # ------------------------------------------------------------------

    def _over_budget(self, level):
        if level == 0:
            return len(self.levels[0]) > self.config.level0_limit
        budget = self.config.level1_tables * self.config.level_ratio ** (level - 1)
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
        for table in picked:
            self.levels[level].remove(table)
        for table in below:
            self.levels[level + 1].remove(table)
        self.levels[level + 1].extend(merged)
        self.levels[level + 1].sort(key=lambda table: table.min_key)
        return [lba for table in picked + below for lba in table.page_lbas]

    # ------------------------------------------------------------------
    # read walks over a snapshot of the table lists
    # ------------------------------------------------------------------

    def _snapshot(self):
        """Copies of the table lists: compactions mutate them in place."""
        return [list(tables) for tables in self.levels]

    @staticmethod
    def _lookup_candidates(levels, key):
        """LBA of the one page per table that may hold ``key`` (key
        range, then Bloom filter), newest table first."""
        for tables in levels:
            for table in tables:
                if table.overlaps(key, key) and table.bloom.may_contain(key):
                    yield table.page_lbas[table.page_index_for(key)]

    @staticmethod
    def _page_lookup(image, key):
        """``(found, value)`` for ``key`` in one data page; found with
        value None is a tombstone."""
        for entry_key, value in decode_page(image):
            if entry_key == key:
                return True, value
        return False, None

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
            for key, value in decode_page(image):
                if low <= key <= high:
                    merged[key] = value
        for memtable in memtables:
            for key, value in memtable.range_items(low, high):
                merged[key] = value
        results = [(k, v) for k, v in sorted(merged.items()) if v is not None]
        return results[:limit] if limit else results
