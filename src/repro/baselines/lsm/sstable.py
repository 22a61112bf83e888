"""Immutable sorted-run tables on the simulated device.

Each SSTable owns a run of data pages; the per-page index (first key
of each page) and the Bloom filter live in memory, as LevelDB keeps
index/filter blocks cached.  Point lookups cost at most one device
read (after a Bloom pass); range reads scan the overlapping pages.

Data page layout::

    header: magic u16 | count u16 | reserved u32
    entry:  key u64 | flags u8 (bit0 = tombstone) | vlen u16 | value
"""

import bisect
from struct import Struct

from repro.baselines.lsm.bloom import BloomFilter
from repro.errors import StorageError

SST_MAGIC = 0x5354
_PAGE = Struct("<HHI")
_ENTRY = Struct("<QBH")
_PAGE_HEADER = _PAGE.size
_ENTRY_HEADER = _ENTRY.size
_FLAG_TOMBSTONE = 1


def decode_page(image):
    """Unpack a data page into (key, value-or-None) entries."""
    magic, count, _reserved = _PAGE.unpack_from(image)
    if magic != SST_MAGIC:
        raise StorageError("bad SSTable page magic 0x%04x" % magic)
    unpack_entry = _ENTRY.unpack_from
    size = len(image)
    entries = []
    pos = _PAGE_HEADER
    for _ in range(count):
        key, flags, vlen = unpack_entry(image, pos)
        pos += _ENTRY_HEADER
        end = pos + vlen
        if end > size:
            raise ValueError("short read: wanted %d bytes" % vlen)
        # a tombstone's vlen is 0; whatever it says is skipped
        entries.append(
            (key, None if flags & _FLAG_TOMBSTONE else bytes(image[pos:end]))
        )
        pos = end
    return entries


def scan_page(image, low, high):
    """The entries of :func:`decode_page` with ``low <= key <= high``
    (``low == high``: a point lookup), walking entry headers no further
    than the first key past ``high`` (entries are sorted) and copying
    only the values kept.  Damage to the page up to there raises what
    :func:`decode_page` raises."""
    magic, count, _reserved = _PAGE.unpack_from(image)
    if magic != SST_MAGIC:
        raise StorageError("bad SSTable page magic 0x%04x" % magic)
    unpack_entry = _ENTRY.unpack_from
    size = len(image)
    entries = []
    pos = _PAGE_HEADER
    for _ in range(count):
        key, flags, vlen = unpack_entry(image, pos)
        pos += _ENTRY_HEADER
        end = pos + vlen
        if end > size:
            raise ValueError("short read: wanted %d bytes" % vlen)
        if key > high:
            break
        if key >= low:
            entries.append(
                (key, None if flags & _FLAG_TOMBSTONE else bytes(image[pos:end]))
            )
        pos = end
    return entries


class SSTable:
    """Metadata for one immutable on-device run."""

    def __init__(self, page_lbas, first_keys, min_key, max_key, entry_count,
                 bloom):
        self.page_lbas = page_lbas
        self.first_keys = first_keys  # first key of each page
        self.min_key = min_key
        self.max_key = max_key
        self.entry_count = entry_count
        self.bloom = bloom

    @classmethod
    def plan(cls, page_size, items):
        """Return (table, page_images) ready to be written.

        ``items`` must be sorted by key and non-empty; values of None
        are tombstones.  Pages are cut and encoded in one pass: an entry
        that does not fit in the current page opens the next one.  The
        caller allocates LBAs and performs the writes (blocking or
        async, per its paradigm).
        """
        if not items:
            raise StorageError("cannot build an empty SSTable")
        pack_page = _PAGE.pack_into
        pack_entry = _ENTRY.pack_into
        images = []
        first_keys = []
        page = None
        pos = page_size  # no page open: the first entry opens one
        count = 0
        for key, value in items:
            needed = _ENTRY_HEADER if value is None else _ENTRY_HEADER + len(value)
            if pos + needed > page_size:
                if needed + _PAGE_HEADER > page_size:
                    raise StorageError(
                        "LSM value of %d bytes exceeds page size" % needed
                    )
                if page is not None:
                    pack_page(page, 0, SST_MAGIC, count, 0)
                    images.append(bytes(page))
                page = bytearray(page_size)
                first_keys.append(key)
                count = 0
                pos = _PAGE_HEADER
            if value is None:
                pack_entry(page, pos, key, _FLAG_TOMBSTONE, 0)
            else:
                pack_entry(page, pos, key, 0, len(value))
                page[pos + _ENTRY_HEADER:pos + needed] = value
            pos += needed
            count += 1
        pack_page(page, 0, SST_MAGIC, count, 0)
        images.append(bytes(page))
        table = cls(
            page_lbas=[None] * len(images),
            first_keys=first_keys,
            min_key=items[0][0],
            max_key=items[-1][0],
            entry_count=len(items),
            bloom=BloomFilter([key for key, _value in items]),
        )
        return table, images

    def overlaps(self, low, high):
        return not (high < self.min_key or low > self.max_key)

    def page_index_for(self, key):
        """Index of the single page that may contain ``key``, or None."""
        if key < self.min_key or key > self.max_key:
            return None
        index = bisect.bisect_right(self.first_keys, key) - 1
        return max(index, 0)

    def page_range_for(self, low, high):
        """(start, end) page-index range overlapping [low, high]."""
        start = max(bisect.bisect_right(self.first_keys, low) - 1, 0)
        end = bisect.bisect_right(self.first_keys, high)
        return start, end

    def __repr__(self):
        return "SSTable(%d entries, [%d..%d])" % (
            self.entry_count,
            self.min_key,
            self.max_key,
        )
