"""Strong-persistent buffering (paper §III-C, read-only buffer).

Every node write still goes directly to the NVM, so a completed update
operation is durable; the buffer only short-circuits reads.  To keep
the cache consistent with the media under asynchronous I/O, a written
block is installed into the buffer **only when its write I/O
completes** — installing earlier would make the new content visible to
concurrent operations before it is durable.
"""

from repro.buffer.lru import LruCache


class ReadOnlyBuffer:
    """LRU page cache that never holds dirty data."""

    mode = "strong"

    def __init__(self, capacity_pages):
        self._lru = LruCache(capacity_pages)
        self.hits = 0
        self.misses = 0

    @property
    def dirty_count(self):
        return 0

    def lookup(self, page_id):
        data = self._lru.get(page_id)
        if data is None:
            self.misses += 1
        else:
            self.hits += 1
        return data

    def install(self, page_id, data):
        """Cache a block known to match the media (read return or
        completed write).  Clean eviction needs no I/O, so the list of
        dirty evictions to flush is always empty."""
        self._lru.put(page_id, bytes(data))
        return []

    def invalidate(self, page_id):
        self._lru.pop(page_id)

    def hit_rate(self):
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def register_metrics(self, registry, labels=None):
        """Expose hit/miss counters through a metric registry."""
        registry.counter(
            "buffer_hits_total", labels,
            fn=lambda: self.hits, help="page lookups served from cache",
        )
        registry.counter(
            "buffer_misses_total", labels,
            fn=lambda: self.misses, help="page lookups that went to media",
        )
        registry.gauge(
            "buffer_hit_ratio", labels,
            fn=self.hit_rate, help="cumulative cache hit rate",
        )
        registry.gauge(
            "buffer_resident_pages", labels,
            fn=lambda: len(self._lru), help="pages resident in the cache",
        )
        return registry

    def snapshot(self):
        """Stats dict for the observability exporters."""
        return {
            "mode": self.mode,
            "pages": len(self._lru),
            "capacity": self._lru.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate(),
            "dirty": self.dirty_count,
        }
