"""Block storage substrate: a page allocator and a write-ahead log."""

from repro.storage.allocator import PageAllocator
from repro.storage.wal import WriteAheadLog, decode_wal_page

__all__ = [
    "PageAllocator",
    "WriteAheadLog",
    "decode_wal_page",
]
