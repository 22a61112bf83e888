"""LevelDB-like LSM key-value store on the simulated device.

The operation plans of :class:`~repro.baselines.lsm.levels.LeveledStore`,
which the PA-LSM worker interleaves, run here under the blocking
interpreter the tree baselines run
(:class:`~repro.baselines.sync_tree.BlockingInterpreter`); this module
is the LSM's page layer under that loop and LevelDB's locking around
it.  The calling thread runs an operation's plan to completion and
blocks on every page read and write, one at a time, through a blocking
I/O service:

* a write (insert, update, delete, ``sync``) holds the writer mutex for
  its whole plan: its WAL writes block it (strong persistence syncs per
  write, the expensive ``sync()`` behaviour the paper measures for
  LevelDB), and the memtable flush and compaction its rotation asks
  for run inline, paid for by the writing thread;
* a read holds the writer mutex only for its plan's first step, which
  takes references to the memtables and table lists;
* the block cache has a mutex of its own;
* a compaction's retired pages stay allocated until every read that
  took its references before the retirement has finished (a count of
  such reads per retirement); with no read in flight they are freed at
  once.
"""

from repro.baselines.lsm.levels import LeveledStore
from repro.baselines.sync_tree import BlockingInterpreter
from repro.core.ops import RANGE, SEARCH
from repro.errors import IoError
from repro.simos.sync import Mutex


class LsmStore(LeveledStore, BlockingInterpreter):
    """The store shared by all baseline worker threads, and their
    :class:`~repro.baselines.runner.BaselineRunner` accessor."""

    def __init__(self, device, io_service, config=None, persistence="strong"):
        super().__init__(device, config, persistence)
        self.io = io_service
        self._write_mutex = Mutex("lsm-write")
        self._cache_mutex = Mutex("lsm-cache")
        self._reads = 0  # reads in flight
        self._retirements = 0  # retirements so far
        # retirement number -> [reads in flight at it still running, lbas]
        self._quarantine = {}

    def execute(self, tls, op):
        """Run ``op``'s plan to completion on the calling thread."""
        simos = tls.simos
        plan = self.make_plan(op)
        simos.sem_wait(self._write_mutex) or (yield)
        if op.kind == SEARCH or op.kind == RANGE:
            effect = next(plan, None)  # the step that takes its references
            since = self._retirements
            self._reads += 1
            simos.sem_post(self._write_mutex) or (yield)
            try:
                yield from self._serve(tls, op, plan, effect)
            finally:
                self._read_done(since)
            return
        try:
            yield from self._serve(tls, op, plan, next(plan, None))
        except IoError:
            # the next writer must not wait for a mutex nobody holds
            simos.sem_post(self._write_mutex) or (yield)
            raise
        simos.sem_post(self._write_mutex) or (yield)

    def _make_plan(self, op):
        return self.make_plan(op)

    def _retire(self, lbas):
        """Free a compaction's pages, or quarantine them while reads
        that may still walk them are in flight."""
        if not self._reads:
            self.free_pages(lbas)
            return
        for lba in lbas:
            self.cache.pop(lba)
        self._quarantine[self._retirements] = [self._reads, lbas]
        self._retirements += 1

    def _read_done(self, since):
        """A read that took its references before retirement ``since``
        finished: it no longer holds up that one or any later."""
        self._reads -= 1
        for number in range(since, self._retirements):
            held = self._quarantine[number]
            held[0] -= 1
            if not held[0]:
                del self._quarantine[number]
                # pops the cache again: a late read may have re-installed
                self.free_pages(held[1])

    def _read_page(self, tls, lba):
        """One page through the block cache (blocking on a miss)."""
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

    def _write_page(self, tls, lba, image):
        """One raw table or log page (blocking)."""
        yield from self.io.write(tls, lba, image)
