"""Weak-persistent buffering (paper §III-C, read-write buffer).

Writes land in the buffer as dirty pages and reach the NVM only when
evicted or when the application calls ``sync()``, merging repeated
writes to hot pages into one device write (lower write amplification).

Pages whose flush I/O is in flight remain readable through the
``in-flight`` side table until the write completes — otherwise a read
racing the flush would fetch stale bytes from the media.
"""

from repro.buffer.read_only import ReadOnlyBuffer


class _Entry:
    __slots__ = ("data", "dirty")

    def __init__(self, data, dirty):
        self.data = data
        self.dirty = dirty


class ReadWriteBuffer(ReadOnlyBuffer):
    """LRU page cache with write-back and explicit sync; the read-side
    stats (hits, misses, hit rate, residency) are the base class's."""

    mode = "weak"

    def __init__(self, capacity_pages):
        super().__init__(capacity_pages)
        self._in_flight = {}  # page_id -> [latest bytes, outstanding count]
        self.write_absorbs = 0
        self.flushes = 0

    @property
    def dirty_count(self):
        return sum(1 for _, entry in self._lru.items() if entry.dirty)

    def lookup(self, page_id):
        entry = self._lru.get(page_id)
        if entry is not None:
            self.hits += 1
            return entry.data
        in_flight = self._in_flight.get(page_id)
        if in_flight is not None:
            self.hits += 1
            return in_flight[0]
        self.misses += 1
        return None

    def install(self, page_id, data):
        """Fill from a completed read; returns dirty evictions to flush."""
        if page_id in self._lru:
            return []
        evicted = self._lru.put(page_id, _Entry(bytes(data), dirty=False))
        return self._handle_eviction(evicted)

    def write(self, page_id, data):
        """Absorb a node write; returns dirty evictions to flush."""
        self.write_absorbs += 1
        entry = self._lru.get(page_id)
        if entry is not None:
            entry.data = bytes(data)
            entry.dirty = True
            return []
        evicted = self._lru.put(page_id, _Entry(bytes(data), dirty=True))
        return self._handle_eviction(evicted)

    def _handle_eviction(self, evicted):
        if evicted is None:
            return []
        page_id, entry = evicted
        if not entry.dirty:
            return []
        self._mark_in_flight(page_id, entry.data)
        self.flushes += 1
        return [(page_id, entry.data)]

    def take_dirty(self):
        """All dirty pages, marked in-flight, for a ``sync()`` flush."""
        flushing = []
        for page_id, entry in self._lru.items():
            if entry.dirty:
                entry.dirty = False
                self._mark_in_flight(page_id, entry.data)
                flushing.append((page_id, entry.data))
        self.flushes += len(flushing)
        return flushing

    def _mark_in_flight(self, page_id, data):
        slot = self._in_flight.get(page_id)
        if slot is None:
            self._in_flight[page_id] = [data, 1]
        else:
            slot[0] = data
            slot[1] += 1

    def in_flight_data(self, page_id):
        """Latest bytes being flushed for ``page_id``, or None."""
        slot = self._in_flight.get(page_id)
        return slot[0] if slot else None

    def flush_done(self, page_id):
        """One flush write to ``page_id`` completed."""
        slot = self._in_flight.get(page_id)
        if slot is None:
            return
        slot[1] -= 1
        if slot[1] <= 0:
            del self._in_flight[page_id]

    def invalidate(self, page_id):
        super().invalidate(page_id)
        self._in_flight.pop(page_id, None)

    def register_metrics(self, registry, labels=None):
        """The base's hit/miss metrics, then dirty/absorb/flush ones."""
        super().register_metrics(registry, labels)
        registry.gauge(
            "buffer_dirty_pages", labels,
            fn=lambda: self.dirty_count, help="resident pages awaiting flush",
        )
        registry.counter(
            "buffer_write_absorbs_total", labels,
            fn=lambda: self.write_absorbs,
            help="node writes absorbed without device I/O",
        )
        registry.counter(
            "buffer_flushes_total", labels,
            fn=lambda: self.flushes,
            help="dirty pages handed to the flush path",
        )
        return registry

    def snapshot(self):
        """The base's stats dict plus the write-back counters."""
        stats = super().snapshot()
        stats["write_absorbs"] = self.write_absorbs
        stats["flushes"] = self.flushes
        return stats
