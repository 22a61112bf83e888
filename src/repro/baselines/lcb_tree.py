"""LCB-Tree baseline: a log-based consistent B+ tree.

The paper's LCB-Tree reaches consistency through logging rather than
in-place page persistence: updates append records to a write-ahead log
and the modified pages stay in an in-memory delta table, written back
to their home locations only at checkpoints.  Strong persistence
flushes the log after every update (one small sequential write per
operation); weak persistence flushes only filled log pages and on
``sync()`` — amortizing many updates per device write.

Implemented as a :class:`SyncTreeAccessor` subclass: the same blocking
interpreter of the shared plans and the same latch protocol, with the
page-persistence layer under it swapped for log-append + delta-table +
checkpoint.
"""

from repro.baselines.sync_tree import SyncTreeAccessor
from repro.core.node import Node
from repro.errors import TreeError
from repro.sim.metrics import CPU_REAL_WORK
from repro.simos.sync import Mutex
from repro.storage.wal import WriteAheadLog


class LcbTreeAccessor(SyncTreeAccessor):
    """Log-based-consistency variant of the synchronous tree."""

    def __init__(
        self,
        tree,
        io_service,
        latches,
        buffer=None,
        persistence="strong",
        wal_pages=65_536,
        checkpoint_pages=2_048,
    ):
        super().__init__(tree, io_service, latches, buffer=buffer)
        if persistence not in ("strong", "weak"):
            raise TreeError("unknown persistence %r" % (persistence,))
        self.log_persistence = persistence
        # the log takes the last wal_pages pages of the device
        self.wal = WriteAheadLog(
            tree.config.page_size,
            base_lba=tree.device.profile.capacity_pages - wal_pages,
            num_pages=wal_pages,
        )
        self._wal_mutex = Mutex("lcb-wal")
        self._delta_mutex = Mutex("lcb-delta")
        self._delta = {}  # page_id -> latest page image
        self.checkpoint_pages = checkpoint_pages
        self.checkpoints = 0

    # ------------------------------------------------------------------
    # persistence layer overrides
    # ------------------------------------------------------------------

    def _read_page(self, tls, page_id):
        simos = tls.simos
        simos.sem_wait(self._delta_mutex) or (yield)
        data = self._delta.get(page_id)
        simos.sem_post(self._delta_mutex) or (yield)
        if data is not None:
            simos.cpu(self.tree.costs.node_parse_ns, CPU_REAL_WORK) or (yield)
            return Node.from_bytes(self.tree.config, page_id, data)
        node = yield from super()._read_page(tls, page_id)
        return node

    def _write_page(self, tls, page_id, data):
        """Log the update; keep the page image in the delta table."""
        simos = tls.simos
        simos.sem_wait(self._delta_mutex) or (yield)
        self._delta[page_id] = data
        delta_size = len(self._delta)
        simos.sem_post(self._delta_mutex) or (yield)

        record = page_id.to_bytes(8, "little") + data[:24]  # logical record
        simos.sem_wait(self._wal_mutex) or (yield)
        self.wal.append(record)
        include_partial = self.log_persistence == "strong"
        writes, flush_lsn = self.wal.take_flushable(include_partial)
        simos.sem_post(self._wal_mutex) or (yield)
        for lba, image in writes:
            yield from self.io.write(tls, lba, image)
        if writes:
            self.wal.mark_durable(flush_lsn)

        if delta_size >= self.checkpoint_pages:
            yield from self._checkpoint(tls)

    def _checkpoint(self, tls):
        """Write the delta table back to home locations (amortized)."""
        simos = tls.simos
        simos.sem_wait(self._delta_mutex) or (yield)
        if len(self._delta) < self.checkpoint_pages:
            simos.sem_post(self._delta_mutex) or (yield)
            return
        self.checkpoints += 1
        snapshot = list(self._delta.items())
        simos.sem_post(self._delta_mutex) or (yield)
        for page_id, data in snapshot:
            yield from self.io.write(tls, page_id, data)
            if self.buffer is not None:
                simos.sem_wait(self._buffer_mutex) or (yield)
                self.buffer.install(page_id, data)
                simos.sem_post(self._buffer_mutex) or (yield)
        simos.sem_wait(self._delta_mutex) or (yield)
        for page_id, data in snapshot:
            if self._delta.get(page_id) is data:
                del self._delta[page_id]
        simos.sem_post(self._delta_mutex) or (yield)

    def materialize_delta(self):
        """Apply the in-memory delta to the media (zero time).

        Stands in for log replay: after a clean shutdown or recovery,
        every logged update is reflected in the home pages.  Used by
        validation and recovery inspection, not by the benchmarks.
        """
        for page_id, data in self._delta.items():
            self.tree.device.raw_write(page_id, data)
        self._delta.clear()

    def _sync(self, tls):
        """Flush the log tail (weak persistence group commit)."""
        simos = tls.simos
        simos.sem_wait(self._wal_mutex) or (yield)
        writes, flush_lsn = self.wal.take_flushable(True)
        simos.sem_post(self._wal_mutex) or (yield)
        for lba, image in writes:
            yield from self.io.write(tls, lba, image)
        if writes:
            self.wal.mark_durable(flush_lsn)
        return len(writes)
