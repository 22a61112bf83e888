"""Baselines: the shared/dedicated synchronous paradigms with a
latch-coupled B+ tree, Blink-tree, LCB-tree and a LevelDB-like LSM
store — all running on the same simulated OS and NVMe device."""

from repro.baselines.blink_tree import BlinkTreeAccessor
from repro.baselines.io_service import DedicatedIoService, SharedIoService
from repro.baselines.latching import BlockingLatchTable
from repro.baselines.lcb_tree import LcbTreeAccessor
from repro.baselines.lsm import LsmConfig, LsmStore
from repro.baselines.runner import BaselineRunner
from repro.baselines.sync_tree import SyncTreeAccessor

__all__ = [
    "SyncTreeAccessor",
    "BlinkTreeAccessor",
    "LcbTreeAccessor",
    "LsmStore",
    "LsmConfig",
    "BaselineRunner",
    "BlockingLatchTable",
    "DedicatedIoService",
    "SharedIoService",
]
