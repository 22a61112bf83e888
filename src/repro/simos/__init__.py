"""Simulated operating system: generator-based threads, a multicore
scheduler with context-switch and preemption accounting, and semaphore
primitives with syscall/wakeup costs."""

from repro.simos.scheduler import (
    Core,
    DEFAULT_OS_PROFILE,
    OsProfile,
    SimOS,
    paper_testbed_profile,
)
from repro.simos.sync import Mutex, Semaphore
from repro.simos.thread import (
    Cpu,
    SemPost,
    SemWait,
    SimThread,
    Sleep,
    YieldCpu,
)

__all__ = [
    "SimOS",
    "OsProfile",
    "Core",
    "SimThread",
    "Cpu",
    "Sleep",
    "YieldCpu",
    "SemWait",
    "SemPost",
    "Semaphore",
    "Mutex",
    "DEFAULT_OS_PROFILE",
    "paper_testbed_profile",
]
