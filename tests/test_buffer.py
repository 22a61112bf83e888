"""Unit tests for LRU cache and the two buffer managers."""

import pytest

from repro.buffer.lru import LruCache
from repro.buffer.read_only import ReadOnlyBuffer
from repro.buffer.read_write import ReadWriteBuffer
from repro.obs.metrics import MetricRegistry

READ_SIDE_METRICS = [
    "buffer_hits_total",
    "buffer_misses_total",
    "buffer_hit_ratio",
    "buffer_resident_pages",
]
READ_SIDE_KEYS = ["mode", "pages", "capacity", "hits", "misses", "hit_rate", "dirty"]


class TestLru:
    def test_put_get(self):
        lru = LruCache(2)
        assert lru.put("a", 1) is None
        assert lru.get("a") == 1
        assert lru.get("b") is None

    def test_eviction_order(self):
        lru = LruCache(2)
        lru.put("a", 1)
        lru.put("b", 2)
        evicted = lru.put("c", 3)
        assert evicted == ("a", 1)

    def test_get_refreshes_recency(self):
        lru = LruCache(2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.get("a")
        evicted = lru.put("c", 3)
        assert evicted == ("b", 2)

    def test_peek_does_not_refresh(self):
        lru = LruCache(2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.peek("a")
        evicted = lru.put("c", 3)
        assert evicted == ("a", 1)

    def test_replace_no_eviction(self):
        lru = LruCache(2)
        lru.put("a", 1)
        lru.put("b", 2)
        assert lru.put("a", 10) is None
        assert lru.get("a") == 10

    def test_pop(self):
        lru = LruCache(2)
        lru.put("a", 1)
        assert lru.pop("a") == 1
        assert lru.pop("a") is None

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            LruCache(0)


class TestReadOnlyBuffer:
    def test_miss_then_hit(self):
        buffer = ReadOnlyBuffer(4)
        assert buffer.lookup(1) is None
        buffer.install(1, b"data")
        assert buffer.lookup(1) == b"data"
        assert buffer.hits == 1
        assert buffer.misses == 1
        assert buffer.hit_rate() == 0.5

    def test_install_returns_no_flushes(self):
        buffer = ReadOnlyBuffer(1)
        assert buffer.install(1, b"a") == []
        assert buffer.install(2, b"b") == []  # clean eviction of 1
        assert buffer.lookup(1) is None

    def test_invalidate(self):
        buffer = ReadOnlyBuffer(4)
        buffer.install(1, b"a")
        buffer.invalidate(1)
        assert buffer.lookup(1) is None

    def test_dirty_count_always_zero(self):
        buffer = ReadOnlyBuffer(4)
        buffer.install(1, b"a")
        assert buffer.dirty_count == 0


class TestReadWriteBuffer:
    def test_write_absorbed_and_readable(self):
        buffer = ReadWriteBuffer(4)
        assert buffer.write(1, b"v1") == []
        assert buffer.lookup(1) == b"v1"
        assert buffer.dirty_count == 1

    def test_clean_eviction_needs_no_flush(self):
        buffer = ReadWriteBuffer(1)
        buffer.install(1, b"a")
        assert buffer.install(2, b"b") == []

    def test_dirty_eviction_returns_flush(self):
        buffer = ReadWriteBuffer(1)
        buffer.write(1, b"v1")
        flushes = buffer.write(2, b"v2")
        assert flushes == [(1, b"v1")]

    def test_in_flight_page_still_readable(self):
        buffer = ReadWriteBuffer(1)
        buffer.write(1, b"v1")
        buffer.write(2, b"v2")  # evicts 1 into in-flight
        assert buffer.lookup(1) == b"v1"
        buffer.flush_done(1)
        assert buffer.lookup(1) is None

    def test_take_dirty_marks_clean(self):
        buffer = ReadWriteBuffer(4)
        buffer.write(1, b"a")
        buffer.write(2, b"b")
        flushing = buffer.take_dirty()
        assert sorted(flushing) == [(1, b"a"), (2, b"b")]
        assert buffer.dirty_count == 0
        # still readable while the flush is in flight
        assert buffer.lookup(1) == b"a"
        buffer.flush_done(1)
        buffer.flush_done(2)
        assert buffer.lookup(1) == b"a"  # still resident in LRU (clean)

    def test_rewrite_during_in_flight_keeps_latest(self):
        buffer = ReadWriteBuffer(1)
        buffer.write(1, b"v1")
        buffer.write(2, b"x")        # v1 now in flight
        buffer.write(1, b"v2")       # rewrite while flush pending
        assert buffer.lookup(1) == b"v2"
        buffer.flush_done(1)
        assert buffer.lookup(1) == b"v2"

    def test_write_merging_counts(self):
        buffer = ReadWriteBuffer(4)
        for _ in range(10):
            buffer.write(1, b"v")
        assert buffer.write_absorbs == 10
        assert buffer.dirty_count == 1
        assert len(buffer.take_dirty()) == 1

    def test_invalidate_clears_in_flight(self):
        buffer = ReadWriteBuffer(1)
        buffer.write(1, b"v1")
        buffer.write(2, b"x")
        buffer.invalidate(1)
        assert buffer.lookup(1) is None


class TestExportedOrder:
    """Metric registration order and snapshot key order are part of
    what the exporters write (the Prometheus text follows registration
    order); the write-back buffer appends its own after the read side."""

    def test_read_only_buffer(self):
        buffer = ReadOnlyBuffer(2)
        registry = buffer.register_metrics(MetricRegistry())
        assert [m.name for m in registry.collect()] == READ_SIDE_METRICS
        assert buffer.lookup(1) is None
        buffer.install(1, b"a")
        assert buffer.lookup(1) == b"a"
        buffer.install(2, b"b")
        buffer.install(3, b"c")  # evicts page 1
        assert buffer.lookup(1) is None
        snapshot = buffer.snapshot()
        assert list(snapshot) == READ_SIDE_KEYS
        assert snapshot == {
            "mode": "strong", "pages": 2, "capacity": 2, "hits": 1,
            "misses": 2, "hit_rate": 1 / 3, "dirty": 0,
        }
        assert registry.scalars() == {
            "buffer_hits_total": 1, "buffer_misses_total": 2,
            "buffer_hit_ratio": 1 / 3, "buffer_resident_pages": 2,
        }

    def test_read_write_buffer(self):
        buffer = ReadWriteBuffer(2)
        registry = buffer.register_metrics(MetricRegistry())
        assert [m.name for m in registry.collect()] == READ_SIDE_METRICS + [
            "buffer_dirty_pages",
            "buffer_write_absorbs_total",
            "buffer_flushes_total",
        ]
        assert buffer.lookup(1) is None
        buffer.install(1, b"a")
        assert buffer.lookup(1) == b"a"
        buffer.write(2, b"b")
        buffer.write(2, b"b2")
        assert buffer.write(3, b"c") == []  # clean eviction of page 1
        assert buffer.take_dirty() == [(2, b"b2"), (3, b"c")]
        buffer.write(3, b"c2")
        snapshot = buffer.snapshot()
        assert list(snapshot) == READ_SIDE_KEYS + ["write_absorbs", "flushes"]
        assert snapshot == {
            "mode": "weak", "pages": 2, "capacity": 2, "hits": 1,
            "misses": 1, "hit_rate": 0.5, "dirty": 1,
            "write_absorbs": 4, "flushes": 2,
        }
        assert registry.scalars() == {
            "buffer_hits_total": 1, "buffer_misses_total": 1,
            "buffer_hit_ratio": 0.5, "buffer_resident_pages": 2,
            "buffer_dirty_pages": 1, "buffer_write_absorbs_total": 4,
            "buffer_flushes_total": 2,
        }
