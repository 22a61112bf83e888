"""Write-ahead log.

A circular region of the device dedicated to sequential log pages.
Used by the LCB-tree baseline (log-based consistency) and the
LevelDB-like LSM store (per-write durability).  The WAL buffers
records into page images; the owner decides when to flush which pages
(per-record for strong persistence, group commit for weak) and submits
the returned (lba, bytes) writes itself, so the WAL stays independent
of any particular execution paradigm.

Record wire format within a page::

    page:   magic u32 | first_lsn u64 | count u16 | used u16 | records...
    record: length u16 | payload bytes

"""

import struct

from repro.errors import StorageError

WAL_MAGIC = 0x57414C31  # "WAL1"
_HEADER = struct.Struct("<IQHH")
_LENGTH = struct.Struct("<H")
_PAGE_HEADER = _HEADER.size
_RECORD_HEADER = _LENGTH.size


class WalPage:
    """An in-memory log page being filled."""

    __slots__ = ("seq", "first_lsn", "records", "used")

    def __init__(self, seq, first_lsn, header_size):
        self.seq = seq
        self.first_lsn = first_lsn
        self.records = []
        self.used = header_size

    def encode(self, page_size):
        """The page image, zero-filled to ``page_size``."""
        header = _HEADER.pack(WAL_MAGIC, self.first_lsn, len(self.records), self.used)
        records = b"".join(_LENGTH.pack(len(record)) + record for record in self.records)
        return (header + records).ljust(page_size, b"\0")


def decode_wal_page(image):
    """Return (first_lsn, [record bytes]) for a WAL page image."""
    magic, first_lsn, count, _used = _HEADER.unpack_from(image)
    if magic != WAL_MAGIC:
        raise StorageError("bad WAL page magic 0x%x" % magic)
    records = []
    pos = _PAGE_HEADER
    for _ in range(count):
        (length,) = _LENGTH.unpack_from(image, pos)
        pos += _RECORD_HEADER
        record = bytes(image[pos:pos + length])
        if len(record) != length:
            raise ValueError("short read: wanted %d bytes" % length)
        records.append(record)
        pos += length
    return first_lsn, records


class WriteAheadLog:
    """Buffered circular log over a fixed LBA range."""

    def __init__(self, page_size, base_lba, num_pages):
        if num_pages < 2:
            raise ValueError("WAL needs at least two pages")
        self.page_size = page_size
        self.base_lba = base_lba
        self.num_pages = num_pages
        self.next_lsn = 0
        self.durable_lsn = -1
        self._page_seq = 0
        self._open_page = WalPage(0, 0, _PAGE_HEADER)
        self._sealed = []

    @property
    def appended_lsn(self):
        """LSN of the most recently appended record, or -1."""
        return self.next_lsn - 1

    def lba_for_seq(self, seq):
        return self.base_lba + (seq % self.num_pages)

    def append(self, record):
        """Buffer a record; returns its LSN.  Records never span pages."""
        needed = _RECORD_HEADER + len(record)
        if needed > self.page_size - _PAGE_HEADER:
            raise StorageError(
                "WAL record of %d bytes exceeds page capacity" % len(record)
            )
        if self._open_page.used + needed > self.page_size:
            self._seal_open_page()
        lsn = self.next_lsn
        self.next_lsn += 1
        page = self._open_page
        if not page.records:
            page.first_lsn = lsn
        page.records.append(bytes(record))
        page.used += needed
        return lsn

    def _seal_open_page(self):
        if self._open_page.records:
            self._sealed.append(self._open_page)
            self._page_seq += 1
        self._open_page = WalPage(self._page_seq, self.next_lsn, _PAGE_HEADER)

    def take_flushable(self, include_partial=True):
        """Pages that must be written to make appended records durable.

        Returns ``(writes, flush_lsn)``: a list of ``(lba, image)``
        pairs and the highest LSN those writes cover.  The caller
        submits the writes and calls :meth:`mark_durable` when they all
        complete.  ``include_partial`` also flushes the open page (the
        per-record / sync path); group commit passes ``False`` until a
        page fills.
        """
        if include_partial and self._open_page.records:
            self._seal_open_page()
        writes = []
        flush_lsn = self.durable_lsn
        for page in self._sealed:
            writes.append((self.lba_for_seq(page.seq), page.encode(self.page_size)))
            flush_lsn = page.first_lsn + len(page.records) - 1
        self._sealed = []
        return writes, flush_lsn

    def mark_durable(self, lsn):
        """Caller confirms every record up to ``lsn`` is on media."""
        if lsn > self.durable_lsn:
            self.durable_lsn = lsn

    def pending_records(self):
        """Number of appended-but-not-yet-durable records."""
        return self.appended_lsn - self.durable_lsn
