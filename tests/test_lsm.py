"""Unit tests for the LSM baseline components."""

import random
import struct

import pytest

from repro.baselines.io_service import DedicatedIoService
from repro.baselines.lsm.bloom import BloomFilter
from repro.baselines.lsm.memtable import MemTable
from repro.baselines.lsm.sstable import SSTable, decode_page
from repro.baselines.lsm import LsmConfig, LsmStore
from repro.core.ops import delete_op, insert_op, range_op, search_op, sync_op
from repro.errors import StorageError
from repro.nvme.device import NvmeDevice, fast_test_profile
from repro.nvme.driver import NvmeDriver
from repro.sim.engine import Engine
from repro.simos.scheduler import OsProfile, SimOS

from cursor_codec import PageReader, PageWriter
from lsm_reference import encode_page, plan_pages


class TestBloom:
    def test_no_false_negatives(self):
        keys = [k * 7 + 1 for k in range(100)]
        bloom = BloomFilter(keys)
        assert all(bloom.may_contain(k) for k in keys)

    def test_mostly_rejects_absent(self):
        bloom = BloomFilter(range(200))
        false_positives = sum(
            1 for key in range(10_000, 12_000) if bloom.may_contain(key)
        )
        assert false_positives < 100  # ~1% expected at 10 bits/key


class TestMemTable:
    def test_put_get_delete(self):
        table = MemTable()
        table.put(5, b"five")
        assert table.get(5) == (True, b"five")
        table.delete(5)
        assert table.get(5) == (True, None)  # tombstone
        assert table.get(6) == (False, None)

    def test_sorted_items(self):
        table = MemTable()
        for key in (5, 1, 9, 3):
            table.put(key, b"x")
        assert [k for k, _v in table.sorted_items()] == [1, 3, 5, 9]

    def test_range_items(self):
        table = MemTable()
        for key in range(0, 100, 10):
            table.put(key, bytes([key]))
        assert [k for k, _v in table.range_items(25, 55)] == [30, 40, 50]


class TestSSTablePages:
    def test_page_roundtrip_with_tombstones(self):
        entries = [(1, b"value-a"), (2, None), (3, b"v")]
        image = encode_page(256, entries)
        assert len(image) == 256
        assert decode_page(image) == entries

    @staticmethod
    def _cursor_encode(page_size, entries):
        """The field-by-field codec encode_page replaced, as reference."""
        writer = PageWriter(page_size)
        writer.u16(0x5354)
        writer.u16(len(entries))
        writer.u32(0)
        for key, value in entries:
            writer.u64(key)
            writer.u8(1 if value is None else 0)
            writer.u16(0 if value is None else len(value))
            writer.raw(b"" if value is None else value)
        return writer.finish()

    @staticmethod
    def _cursor_decode(image):
        reader = PageReader(image)
        assert reader.u16() == 0x5354
        count = reader.u16()
        reader.u32()
        entries = []
        for _ in range(count):
            key = reader.u64()
            flags = reader.u8()
            data = reader.raw(reader.u16())
            entries.append((key, None if flags & 1 else data))
        return entries

    def test_page_images_equal_the_cursor_codec(self):
        rng = random.Random(7)
        for _ in range(50):
            entries = [
                (
                    rng.getrandbits(64),
                    None if rng.random() < 0.3 else rng.randbytes(rng.randrange(0, 40)),
                )
                for _ in range(rng.randrange(0, 12))
            ]
            image = encode_page(1024, entries)
            assert image == self._cursor_encode(1024, entries)
            assert decode_page(image) == entries == self._cursor_decode(image)
            assert decode_page(memoryview(image)) == entries

    def test_bad_magic_is_a_storage_error(self):
        image = bytearray(encode_page(256, [(1, b"v")]))
        image[0] ^= 0xFF
        with pytest.raises(StorageError, match="bad SSTable page magic 0x53ab"):
            decode_page(bytes(image))

    def test_truncated_image_raises_as_the_cursor_codec_did(self):
        image = encode_page(256, [(1, b"value-a"), (2, None), (3, b"v")])
        for cut, error in ((4, struct.error), (8 + 5, struct.error), (8 + 11 + 3, ValueError)):
            with pytest.raises(error):
                self._cursor_decode(image[:cut])
            with pytest.raises(error):
                decode_page(image[:cut])
        with pytest.raises(ValueError, match="short read: wanted 7 bytes"):
            decode_page(image[: 8 + 11 + 3])

    def test_tombstone_with_a_length_skips_that_many_bytes(self):
        image = bytearray(encode_page(256, [(1, None), (2, b"ab")]))
        follower = bytes(image[8 + 11:8 + 11 + 13])
        struct.pack_into("<H", image, 8 + 9, 4)  # the tombstone claims 4 bytes
        image[8 + 11 + 4:8 + 11 + 4 + 13] = follower
        assert decode_page(bytes(image)) == [(1, None), (2, b"ab")]
        assert self._cursor_decode(bytes(image)) == [(1, None), (2, b"ab")]

    def test_encode_rejects_what_does_not_fit(self):
        with pytest.raises(ValueError, match="page overflow: 69 > 64"):
            encode_page(64, [(1, bytes(50))])
        with pytest.raises(struct.error):
            encode_page(16, [(1, None)])

    def test_plan_pages_splits_by_size(self):
        items = [(k, bytes(100)) for k in range(10)]
        pages = plan_pages(512, items)
        assert all(len(chunk) <= 4 for chunk in pages)
        assert sum(len(chunk) for chunk in pages) == 10

    def test_oversized_value_rejected(self):
        with pytest.raises(StorageError):
            plan_pages(128, [(1, bytes(200))])

    def test_table_plan_metadata(self):
        items = [(k * 10, bytes(8)) for k in range(100)]
        table, images = SSTable.plan(512, items)
        assert table.min_key == 0
        assert table.max_key == 990
        assert table.entry_count == 100
        assert len(images) == len(table.page_lbas)
        assert table.overlaps(500, 600)
        assert not table.overlaps(1_000, 2_000)

    def test_page_index_for(self):
        items = [(k, bytes(8)) for k in range(100)]
        table, _images = SSTable.plan(512, items)
        index = table.page_index_for(50)
        start, end = table.page_range_for(0, 99)
        assert index is not None
        assert start == 0
        assert end == len(table.page_lbas)
        assert table.page_index_for(5_000) is None

    def test_empty_table_rejected(self):
        with pytest.raises(StorageError):
            SSTable.plan(512, [])


def make_store(persistence="weak", memtable_entries=50):
    engine = Engine(seed=2)
    simos = SimOS(engine, OsProfile(cores=4))
    device = NvmeDevice(engine, fast_test_profile())
    driver = NvmeDriver(device)
    io_service = DedicatedIoService(driver)
    io_service.start(simos)
    store = LsmStore(
        device,
        io_service,
        LsmConfig(memtable_entries=memtable_entries, wal_pages=1_024),
        persistence=persistence,
    )
    return engine, simos, io_service, store


def run_thread(engine, simos, body):
    holder = {}

    def wrapper():
        holder["result"] = yield from body
    thread = simos.spawn(wrapper())
    simos.run_until_done([thread])
    return holder.get("result")


def put(store, tls, key, value):
    """Blocking upsert (``value`` None: delete) through the store."""
    op = insert_op(key, value) if value is not None else delete_op(key)
    yield from store.execute(tls, op)


def result_of(store, tls, op):
    yield from store.execute(tls, op)
    return op.result


@pytest.mark.parametrize("entries", [0, -5])
def test_non_positive_memtable_entries_rejected(entries):
    # the sync store used to clamp these to 1 silently
    with pytest.raises(StorageError):
        LsmConfig(memtable_entries=entries)


class TestLsmStore:
    def test_put_get_through_flush(self):
        engine, simos, io_service, store = make_store(memtable_entries=20)
        tls = io_service.register_thread()

        def body():
            for key in range(100):
                yield from put(store, tls, key, bytes([key % 256]) * 8)
            results = []
            for key in (0, 50, 99):
                value = yield from result_of(store, tls, search_op(key))
                results.append(value)
            return results

        results = run_thread(engine, simos, body())
        assert results == [bytes([0]) * 8, bytes([50]) * 8, bytes([99]) * 8]
        assert store.flushes >= 4

    def test_delete_masks_older_versions(self):
        engine, simos, io_service, store = make_store(memtable_entries=10)
        tls = io_service.register_thread()

        def body():
            for key in range(30):
                yield from put(store, tls, key, bytes(8))
            yield from put(store, tls, 7, None)  # tombstone after flushes
            return (yield from result_of(store, tls, search_op(7)))

        assert run_thread(engine, simos, body()) is None

    def test_range_merges_levels_and_memtable(self):
        engine, simos, io_service, store = make_store(memtable_entries=10)
        tls = io_service.register_thread()

        def body():
            for key in range(0, 50, 2):
                yield from put(store, tls, key, b"old-" + bytes(4))
            yield from put(store, tls, 4, b"new-" + bytes(4))
            return (yield from result_of(store, tls, range_op(0, 10)))

        results = dict(run_thread(engine, simos, body()))
        assert results[4] == b"new-" + bytes(4)
        assert sorted(results) == [0, 2, 4, 6, 8, 10]

    def test_bulk_load_readable(self):
        engine, simos, io_service, store = make_store()
        items = [(k * 3, bytes([k % 251]) * 8) for k in range(200)]
        store.bulk_load(items)
        tls = io_service.register_thread()

        def body():
            return (yield from result_of(store, tls, search_op(300)))

        assert run_thread(engine, simos, body()) == bytes([100 % 251]) * 8

    def test_bulk_load_unsorted_rejected(self):
        engine, simos, io_service, store = make_store()
        with pytest.raises(StorageError):
            store.bulk_load([(5, b"x"), (1, b"y")])

    def test_bulk_load_onto_overlapping_level1_runs_rejected(self):
        """Level-1 runs stay disjoint (lookups bisect them): a second
        load whose keys reach into a loaded run is refused, a disjoint
        one still lands."""
        engine, simos, io_service, store = make_store()
        store.bulk_load([(k * 3, bytes(8)) for k in range(100, 200)])
        with pytest.raises(StorageError, match=r"keys \[0\.\.300\] overlap level-1 run"):
            store.bulk_load([(k * 3, bytes(8)) for k in range(101)])
        store.bulk_load([(k * 3, bytes([k % 251]) * 8) for k in range(100)])
        store.bulk_load([(k * 3, bytes([k % 251]) * 8) for k in range(200, 300)])
        runs = store.levels[1]
        assert all(a.max_key < b.min_key for a, b in zip(runs, runs[1:]))
        tls = io_service.register_thread()

        def body():
            values = []
            for key in (0, 297, 300, 600, 897):
                values.append((yield from result_of(store, tls, search_op(key))))
            return values

        assert run_thread(engine, simos, body()) == [
            bytes([k % 251]) * 8 if k < 100 or k >= 200 else bytes(8)
            for k in (0, 99, 100, 200, 299)
        ]

    def test_strong_persistence_flushes_wal_per_write(self):
        engine, simos, io_service, store = make_store(persistence="strong")
        tls = io_service.register_thread()

        def body():
            for key in range(5):
                yield from put(store, tls, key, bytes(8))

        run_thread(engine, simos, body())
        assert store.wal.pending_records() == 0

    def test_weak_persistence_defers_wal(self):
        engine, simos, io_service, store = make_store(persistence="weak")
        tls = io_service.register_thread()

        def body():
            yield from put(store, tls, 1, bytes(8))

        run_thread(engine, simos, body())
        assert store.wal.pending_records() == 1

        def sync_body():
            return (yield from result_of(store, tls, sync_op()))

        run_thread(engine, simos, sync_body())
        assert store.wal.pending_records() == 0

    def test_compaction_reclaims_level0(self):
        engine, simos, io_service, store = make_store(memtable_entries=10)
        tls = io_service.register_thread()

        def body():
            for key in range(300):
                yield from put(store, tls, key % 40, key.to_bytes(8, "little"))

        run_thread(engine, simos, body())
        assert store.compactions >= 1
        assert len(store.levels[0]) <= store.config.level0_limit

        def verify():
            results = []
            for key in range(40):
                value = yield from result_of(store, tls, search_op(key))
                results.append(int.from_bytes(value, "little"))
            return results

        values = run_thread(engine, simos, verify())
        # newest version of each key survives compaction
        for key, value in enumerate(values):
            assert value % 40 == key
