"""LevelDB-like LSM store: memtable, WAL, leveled SSTables with
compaction, Bloom filters and a block cache."""

from repro.baselines.lsm.bloom import BloomFilter
from repro.baselines.lsm.memtable import MemTable
from repro.baselines.lsm.sstable import SSTable, decode_page
from repro.baselines.lsm.levels import LeveledStore, LsmConfig
from repro.baselines.lsm.store import LsmStore

__all__ = [
    "BloomFilter",
    "MemTable",
    "SSTable",
    "LeveledStore",
    "LsmStore",
    "LsmConfig",
    "decode_page",
]
