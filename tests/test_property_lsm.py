"""Property-based tests holding the LSM store's host path equal to the
straightforward spellings it replaced (``lsm_reference``): the byte-array
Bloom filter, the one-pass table build, page reads that stop at the key,
the bisecting level walk and the quarantine's admission-order minimum."""

import random

from hypothesis import given, settings, strategies as st
import pytest

from repro.baselines.lsm.bloom import BloomFilter
from repro.baselines.lsm.levels import LeveledStore
from repro.baselines.lsm.memtable import MemTable
from repro.baselines.lsm.sstable import SSTable, decode_page, scan_page
from repro.errors import StorageError
from repro.palsm.worker import AdmissionOrder

import lsm_reference as ref

SEEDS = st.integers(0, 2**32 - 1)
PAGE_SIZES = st.sampled_from([32, 64, 128, 256, 4096])


def random_items(rng, count, max_value=40, tombstones=0.3, key_space=None):
    """``count`` sorted unique u64 keys (below ``key_space`` if given),
    each with a value of up to ``max_value`` bytes or a tombstone."""
    if key_space is None:
        keys = set()
        while len(keys) < count:
            keys.add(rng.getrandbits(64))
        keys = sorted(keys)
    else:
        keys = sorted(rng.sample(range(key_space), min(count, key_space)))
    return [
        (key, None if rng.random() < tombstones else rng.randbytes(rng.randrange(max_value + 1)))
        for key in keys
    ]


def outcome(fn, *args):
    """``("ok", result)`` or ``("raised", type, message)``."""
    try:
        return ("ok", fn(*args))
    except Exception as error:  # the references raise what they raise
        return ("raised", type(error), str(error))


# -- Bloom filter ----------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(count=st.sampled_from([1, 7, 500, 4_000]), seed=SEEDS)
def test_bloom_bits_equal_the_big_int_reference(count, seed):
    rng = random.Random(seed)
    keys = [rng.getrandbits(64) for _ in range(count)]
    bloom = BloomFilter(keys)
    assert set(bloom._bits) <= {0, 1}
    bits = ref.bloom_bits(keys)
    assert [bool(flag) for flag in bloom._bits] == [
        bool(bits >> position & 1) for position in range(bloom.n_bits)
    ]
    probes = keys[:50] + [rng.getrandbits(64) for _ in range(200)]
    for key in probes:
        assert bloom.may_contain(key) == ref.bloom_may_contain(
            bits, bloom.n_bits, bloom.k, key
        )


# -- one-pass table build --------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(seed=SEEDS, page_size=PAGE_SIZES, count=st.integers(1, 60))
def test_one_pass_pages_equal_the_two_pass_codec(seed, page_size, count):
    """Images and first keys, or the error (an oversized value; a page
    too small for any entry), equal plan_pages + encode_page's."""
    rng = random.Random(seed)
    items = random_items(rng, count, max_value=rng.choice([8, 40, 300]))
    built = outcome(SSTable.plan, page_size, items)
    expected = outcome(ref.two_pass_plan, page_size, items)
    if expected[0] == "raised":
        assert built == expected
        return
    table, images = built[1]
    first_keys, reference_images = expected[1]
    assert images == reference_images
    assert all(type(image) is bytes for image in images)
    assert table.first_keys == first_keys
    assert len(table.page_lbas) == len(images)
    assert (table.min_key, table.max_key) == (items[0][0], items[-1][0])
    assert table.entry_count == len(items)


@pytest.mark.parametrize("page_size", [64, 128])
def test_an_entry_that_fills_a_page_exactly_fits(page_size):
    """The boundary the overflow check guards: header + entry == page."""
    fits = [(1, bytes(page_size - 8 - 11))]
    _table, (image,) = SSTable.plan(page_size, fits)
    assert decode_page(image) == fits
    assert [image] == ref.two_pass_plan(page_size, fits)[1]
    with pytest.raises(StorageError, match="LSM value of %d bytes" % (page_size - 7)):
        SSTable.plan(page_size, [(1, bytes(page_size - 8 - 10))])


# -- page reads ------------------------------------------------------------


def entry_spans(entries):
    """``(header_end, value_end)`` of each entry of an encoded page."""
    spans = []
    pos = 8
    for _key, value in entries:
        header_end = pos + 11
        pos = header_end + (0 if value is None else len(value))
        spans.append((header_end, pos))
    return spans


def probe_keys(rng, entries):
    keys = [key for key, _value in entries]
    probes = keys + [0, (1 << 64) - 1, rng.getrandbits(64)]
    if keys:
        probes += [keys[0] - 1, keys[-1] + 1]
        probes += [key + 1 for key in keys[:5]]
    return [key for key in probes if 0 <= key < 1 << 64]


def probe_ranges(rng, probes):
    """Point lookups at every probe, then random ranges over them (some
    empty: ``low > high``)."""
    return [(key, key) for key in probes] + [
        (rng.choice(probes), rng.choice(probes)) for _ in range(20)
    ]


@settings(max_examples=200, deadline=None)
@given(seed=SEEDS, count=st.integers(0, 25))
def test_page_reads_equal_the_decode_page_spelling(seed, count):
    """On whole pages, bytes or memoryview: keys present (tombstones
    too), between entries, before the first and after the last; ranges
    inside, around, outside and empty."""
    rng = random.Random(seed)
    entries = random_items(rng, count)
    image = ref.encode_page(1024, entries)
    for low, high in probe_ranges(rng, probe_keys(rng, entries)):
        expected = ref.decoded_scan(image, low, high)
        assert scan_page(image, low, high) == expected
        assert scan_page(memoryview(image), low, high) == expected


@settings(max_examples=200, deadline=None)
@given(seed=SEEDS, count=st.integers(1, 20))
def test_a_truncated_page_raises_what_decode_page_raises_before_the_key(seed, count):
    """A read that walks into the damage raises decode_page's error
    (the damaged entry's: a short header or a short value); one that
    stops before it answers as the intact page does."""
    rng = random.Random(seed)
    entries = random_items(rng, count, tombstones=0.2)
    image = ref.encode_page(1024, entries)
    spans = entry_spans(entries)
    # a cut inside the page header is a struct.error for every read
    cut = rng.randrange(8 if rng.random() < 0.1 else spans[-1][1])
    damaged = image[:cut]
    error = outcome(decode_page, damaged)
    assert error[0] == "raised"
    first_bad = next(i for i, (_h, end) in enumerate(spans) if end > cut)
    keys = [key for key, _value in entries]
    for low, high in probe_ranges(rng, probe_keys(rng, entries)):
        # the walk reads every entry up to the first one past high
        walked = next((i for i, k in enumerate(keys) if k > high), len(keys))
        if cut < 8 or first_bad <= walked:
            assert outcome(scan_page, damaged, low, high) == error
        else:
            assert scan_page(damaged, low, high) == ref.decoded_scan(image, low, high)


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS, pages=st.integers(0, 4), limit=st.sampled_from([0, 1, 5]))
def test_scan_result_equals_the_decode_page_overlay(seed, pages, limit):
    rng = random.Random(seed)
    key_space = 400
    images = [
        ref.encode_page(1024, random_items(rng, rng.randrange(12), key_space=key_space))
        for _ in range(pages)
    ]
    memtables = []
    for _ in range(rng.randrange(3)):
        memtable = MemTable()
        for key, value in random_items(rng, rng.randrange(8), key_space=key_space):
            memtable.put(key, value)
        memtables.append(memtable)
    low, high = rng.randrange(key_space), rng.randrange(key_space)
    merged = {}
    for image in images:
        merged.update(ref.decoded_scan(image, low, high))
    for memtable in memtables:
        merged.update(memtable.range_items(low, high))
    expected = [(k, v) for k, v in sorted(merged.items()) if v is not None]
    expected = expected[:limit] if limit else expected
    assert LeveledStore._scan_result(images, memtables, low, high, limit) == expected


# -- level walk ------------------------------------------------------------


def random_levels(rng, key_space):
    """Level 0: overlapping tables.  Levels 1+: disjoint runs sorted by
    ``min_key``, some of them empty levels."""
    next_lba = iter(range(10**6))

    def make_table(keys):
        table, images = SSTable.plan(128, [(key, bytes(8)) for key in keys])
        table.page_lbas = [next(next_lba) for _ in images]
        return table

    levels = [[
        make_table(sorted(rng.sample(range(key_space), rng.randrange(1, 30))))
        for _ in range(rng.randrange(5))
    ]]
    for _ in range(rng.randrange(4)):
        keys = sorted(rng.sample(range(key_space), rng.randrange(0, 120)))
        runs = []
        while keys:
            size = rng.randrange(1, 25)
            runs.append(make_table(keys[:size]))
            keys = keys[size:]
        levels.append(runs)
    return levels


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS)
def test_bisect_walk_equals_the_linear_walk(seed):
    rng = random.Random(seed)
    key_space = 600
    levels = random_levels(rng, key_space)
    for key in range(-1, key_space + 1, 3):
        assert list(LeveledStore._lookup_candidates(levels, key)) == list(
            ref.linear_lookup_candidates(levels, key)
        )


# -- quarantine ------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(seed=SEEDS, steps=st.integers(1, 200))
def test_admission_order_minimum_equals_min_of_active(seed, steps):
    rng = random.Random(seed)
    order = AdmissionOrder()
    active = set()
    next_seq = 0
    for _ in range(steps):
        if active and rng.random() < 0.5:
            seq = rng.choice(sorted(active))
            active.discard(seq)
            order.finish(seq)
        else:
            order.admit(next_seq)
            active.add(next_seq)
            next_seq += 1
        assert order.oldest(next_seq) == (min(active) if active else next_seq)
