"""Discrete-event simulation kernel: virtual clock, event queue, engine,
seeded random streams and measurement primitives."""

from repro.sim.clock import (
    Clock,
    NS_PER_MS,
    NS_PER_SEC,
    NS_PER_US,
    msec,
    sec,
    to_msec,
    to_sec,
    to_usec,
    usec,
)
from repro.sim.engine import Engine
from repro.sim.events import EventQueue
from repro.sim.metrics import (
    CPU_CATEGORIES,
    CPU_NVME,
    CPU_OTHER,
    CPU_REAL_WORK,
    CPU_SCHED,
    CPU_SYNC,
    Counter,
    CpuAccount,
    LatencyRecorder,
    TimeWeightedGauge,
    throughput_per_sec,
)
from repro.sim.rng import RngRegistry

__all__ = [
    "Clock",
    "Engine",
    "EventQueue",
    "RngRegistry",
    "Counter",
    "CpuAccount",
    "LatencyRecorder",
    "TimeWeightedGauge",
    "throughput_per_sec",
    "CPU_CATEGORIES",
    "CPU_REAL_WORK",
    "CPU_SYNC",
    "CPU_NVME",
    "CPU_SCHED",
    "CPU_OTHER",
    "NS_PER_US",
    "NS_PER_MS",
    "NS_PER_SEC",
    "usec",
    "msec",
    "sec",
    "to_usec",
    "to_msec",
    "to_sec",
]
