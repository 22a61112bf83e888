"""The straightforward spellings the LSM store's host path replaced,
kept as the references its tests hold it equal to: the two-pass table
codec (cut pages, then encode each), the big-int Bloom filter, page
reads that decode the whole page, and a level walk that tests every
table."""

from repro.baselines.lsm.sstable import (
    SST_MAGIC,
    _ENTRY,
    _ENTRY_HEADER,
    _FLAG_TOMBSTONE,
    _PAGE,
    _PAGE_HEADER,
    decode_page,
)
from repro.errors import StorageError


def encode_page(page_size, entries):
    """Pack (key, value-or-None) entries into one page image."""
    buf = bytearray(page_size)
    _PAGE.pack_into(buf, 0, SST_MAGIC, len(entries), 0)
    pack_entry = _ENTRY.pack_into
    pos = _PAGE_HEADER
    for key, value in entries:
        if value is None:
            pack_entry(buf, pos, key, _FLAG_TOMBSTONE, 0)
            pos += _ENTRY_HEADER
        else:
            pack_entry(buf, pos, key, 0, len(value))
            pos += _ENTRY_HEADER
            end = pos + len(value)
            if end > page_size:  # a slice assignment would grow the page
                raise ValueError("page overflow: %d > %d" % (end, page_size))
            buf[pos:end] = value
            pos = end
    return bytes(buf)


def plan_pages(page_size, items):
    """Group sorted (key, value-or-None) items into page-sized chunks."""
    pages = []
    current = []
    used = _PAGE_HEADER
    for key, value in items:
        needed = _ENTRY_HEADER + (len(value) if value is not None else 0)
        if needed + _PAGE_HEADER > page_size:
            raise StorageError("LSM value of %d bytes exceeds page size" % needed)
        if used + needed > page_size:
            pages.append(current)
            current = []
            used = _PAGE_HEADER
        current.append((key, value))
        used += needed
    if current:
        pages.append(current)
    return pages


def two_pass_plan(page_size, items):
    """``(first_keys, images)`` of ``SSTable.plan``, cut then encoded."""
    chunks = plan_pages(page_size, items)
    return (
        [chunk[0][0] for chunk in chunks],
        [encode_page(page_size, chunk) for chunk in chunks],
    )


def bloom_bits(keys, bits_per_key=10):
    """The filter's set positions as a big int: one OR per position
    ``(h1 + i*h2) % n_bits``, the layout before the byte array."""
    n_bits = max(64, max(len(keys), 1) * bits_per_key)
    k = max(1, min(8, int(round(bits_per_key * 0.69))))
    bits = 0
    for key in keys:
        h1, h2 = _hash_pair(key)
        for i in range(k):
            bits |= 1 << ((h1 + i * h2) % n_bits)
    return bits


def bloom_may_contain(bits, n_bits, k, key):
    h1, h2 = _hash_pair(key)
    return all(bits & (1 << ((h1 + i * h2) % n_bits)) for i in range(k))


def _hash_pair(key):
    h1 = (key * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    h2 = ((key ^ (key >> 33)) * 0xC2B2AE3D27D4EB4F) & 0xFFFFFFFFFFFFFFFF
    return h1, h2 | 1


def decoded_scan(image, low, high):
    """``scan_page`` by decoding the whole page and filtering."""
    return [(key, value) for key, value in decode_page(image) if low <= key <= high]


def linear_lookup_candidates(levels, key):
    """``LeveledStore._lookup_candidates`` testing every table."""
    for tables in levels:
        for table in tables:
            if table.overlaps(key, key) and table.bloom.may_contain(key):
                yield table.page_lbas[table.page_index_for(key)]

