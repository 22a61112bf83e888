"""Discrete-event simulation kernel: virtual clock, event queue, engine,
seeded random streams and measurement primitives."""

from repro.sim.clock import (
    Clock,
    NS_PER_SEC,
    NS_PER_US,
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
    "CPU_CATEGORIES",
    "CPU_REAL_WORK",
    "CPU_SYNC",
    "CPU_NVME",
    "CPU_SCHED",
    "CPU_OTHER",
    "NS_PER_US",
    "NS_PER_SEC",
    "usec",
    "to_usec",
]
