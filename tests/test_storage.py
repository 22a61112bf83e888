"""Unit tests for the allocator, the WAL and the meta page codec."""

import random
import struct

import pytest

from repro.core.meta import META_MAGIC, META_VERSION, TreeMeta
from repro.errors import AllocationError, StorageError
from repro.storage.allocator import PageAllocator
from repro.storage.wal import WAL_MAGIC, WalPage, WriteAheadLog, decode_wal_page

from cursor_codec import PageReader, PageWriter


class TestAllocator:
    def test_sequential_allocation(self):
        alloc = PageAllocator(base=10, capacity=5)
        assert [alloc.allocate() for _ in range(3)] == [10, 11, 12]
        assert alloc.allocated_count == 3
        assert alloc.free_count == 2

    def test_free_and_reuse(self):
        alloc = PageAllocator(base=0, capacity=4)
        a = alloc.allocate()
        b = alloc.allocate()
        alloc.free(a)
        assert alloc.allocate() == a
        assert alloc.allocated_count == 2
        assert b == 1

    def test_exhaustion(self):
        alloc = PageAllocator(base=0, capacity=2)
        alloc.allocate()
        alloc.allocate()
        with pytest.raises(AllocationError):
            alloc.allocate()

    def test_free_unallocated_rejected(self):
        alloc = PageAllocator(base=0, capacity=10)
        with pytest.raises(AllocationError):
            alloc.free(5)

    def test_watermark_restore(self):
        alloc = PageAllocator(base=1, capacity=100, next_page=50)
        assert alloc.allocate() == 50

    def test_bad_watermark_rejected(self):
        with pytest.raises(ValueError):
            PageAllocator(base=1, capacity=10, next_page=500)


class TestWal:
    def test_append_and_flush_roundtrip(self):
        wal = WriteAheadLog(page_size=256, base_lba=100, num_pages=16)
        lsns = [wal.append(b"record-%d" % i) for i in range(5)]
        assert lsns == [0, 1, 2, 3, 4]
        writes, flush_lsn = wal.take_flushable(include_partial=True)
        assert flush_lsn == 4
        assert len(writes) == 1
        lba, image = writes[0]
        assert lba == 100
        first_lsn, records = decode_wal_page(image)
        assert first_lsn == 0
        assert records == [b"record-%d" % i for i in range(5)]

    def test_group_commit_skips_partial(self):
        wal = WriteAheadLog(page_size=64, base_lba=0, num_pages=8)
        wal.append(b"x" * 10)
        writes, _lsn = wal.take_flushable(include_partial=False)
        assert writes == []
        assert wal.pending_records() == 1

    def test_page_fills_and_seals(self):
        wal = WriteAheadLog(page_size=64, base_lba=0, num_pages=8)
        # page capacity = 64 - 16 header = 48 bytes; records of 20+2
        for _ in range(4):
            wal.append(b"y" * 20)
        writes, flush_lsn = wal.take_flushable(include_partial=False)
        assert len(writes) >= 1
        assert flush_lsn >= 1

    def test_record_too_large(self):
        wal = WriteAheadLog(page_size=64, base_lba=0, num_pages=8)
        with pytest.raises(StorageError):
            wal.append(b"z" * 60)

    def test_wraparound_lbas(self):
        wal = WriteAheadLog(page_size=64, base_lba=10, num_pages=2)
        assert wal.lba_for_seq(0) == 10
        assert wal.lba_for_seq(1) == 11
        assert wal.lba_for_seq(2) == 10

    def test_durable_lsn_tracking(self):
        wal = WriteAheadLog(page_size=256, base_lba=0, num_pages=4)
        wal.append(b"a")
        wal.append(b"b")
        assert wal.durable_lsn == -1
        _writes, flush_lsn = wal.take_flushable(True)
        wal.mark_durable(flush_lsn)
        assert wal.durable_lsn == 1
        assert wal.pending_records() == 0

    @staticmethod
    def _cursor_encode(page, page_size):
        """The field-by-field codec WalPage.encode replaced, as reference."""
        writer = PageWriter(page_size)
        writer.u32(WAL_MAGIC)
        writer.u64(page.first_lsn)
        writer.u16(len(page.records))
        writer.u16(page.used)
        for record in page.records:
            writer.u16(len(record))
            writer.raw(record)
        return writer.finish()

    @staticmethod
    def _cursor_decode(image):
        reader = PageReader(image)
        assert reader.u32() == WAL_MAGIC
        first_lsn = reader.u64()
        count = reader.u16()
        reader.u16()
        return first_lsn, [reader.raw(reader.u16()) for _ in range(count)]

    def test_page_images_equal_the_cursor_codec(self):
        rng = random.Random(11)
        for _ in range(50):
            page = WalPage(0, rng.getrandbits(64), 16)
            for _ in range(rng.randrange(0, 12)):
                record = rng.randbytes(rng.randrange(0, 60))
                page.records.append(record)
                page.used += 2 + len(record)
            image = page.encode(1024)
            assert image == self._cursor_encode(page, 1024)
            expected = (page.first_lsn, page.records)
            assert decode_wal_page(image) == expected == self._cursor_decode(image)

    def test_bad_magic_and_short_record(self):
        page = WalPage(0, 5, 16)
        page.records.append(b"record")
        page.used += 8
        image = page.encode(64)
        with pytest.raises(StorageError, match="bad WAL page magic 0x0"):
            decode_wal_page(bytes(64))
        with pytest.raises(ValueError, match="short read: wanted 6 bytes"):
            decode_wal_page(image[:16 + 2 + 3])


class TestMetaPage:
    @staticmethod
    def _cursor_encode(meta):
        """The field-by-field codec TreeMeta.to_bytes replaced, as reference."""
        writer = PageWriter(meta.page_size)
        writer.u32(META_MAGIC)
        writer.u16(META_VERSION)
        writer.u16(0)
        writer.u32(meta.page_size)
        writer.u32(meta.payload_size)
        writer.u64(meta.root_page)
        writer.u32(meta.height)
        writer.u32(0)
        writer.u64(meta.next_page)
        writer.u64(meta.key_count)
        return writer.finish()

    def test_page_images_equal_the_cursor_codec(self):
        rng = random.Random(13)
        for page_size in (512, 4096):
            for _ in range(25):
                meta = TreeMeta(
                    page_size,
                    rng.getrandbits(32),
                    rng.getrandbits(64),
                    rng.getrandbits(32),
                    rng.getrandbits(64),
                    rng.getrandbits(64),
                )
                image = meta.to_bytes()
                assert image == self._cursor_encode(meta)
                restored = TreeMeta.from_bytes(image)
                assert [getattr(restored, name) for name in TreeMeta.__slots__] == [
                    getattr(meta, name) for name in TreeMeta.__slots__
                ]

    def test_too_small_a_page_raises(self):
        with pytest.raises(struct.error):
            TreeMeta(32, 8, 1, 1, 2).to_bytes()
