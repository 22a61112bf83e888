"""Seeded schedule-exploration fuzzing with differential parity.

The simulation is deterministic by construction; this package makes
its two pinned nondeterminism sources — SimOS scheduling choices and
NVMe completion timing — explorable.  A seeded
:class:`~repro.fuzz.hooks.ScheduleExplorer` perturbs them through the
null-default decision hooks on :class:`~repro.simos.scheduler.SimOS`,
:class:`~repro.sim.engine.Engine` and
:class:`~repro.nvme.device.NvmeDevice`, transcribing every decision;
the harness checks each explored schedule against oracles and
invariants; failures shrink to a minimal ``seed + trace`` reproducer
that replays bit-identically.  ``python -m repro.fuzz`` is the CLI;
``python -m repro.bench fuzz`` renders the exhibit table.
"""

from repro.fuzz.hooks import (
    FuzzConfig,
    HookBinder,
    ScheduleExplorer,
    TraceDecider,
)
from repro.fuzz.harness import (
    FuzzRunConfig,
    NoProgressWatchdog,
    config_from_jsonable,
    config_jsonable,
    explore,
    known_bad_config,
    make_workload,
    replay,
    run_one,
)
from repro.fuzz.shrink import failure_signature, shrink_trace

__all__ = [
    "FuzzConfig",
    "FuzzRunConfig",
    "HookBinder",
    "NoProgressWatchdog",
    "ScheduleExplorer",
    "TraceDecider",
    "config_from_jsonable",
    "config_jsonable",
    "explore",
    "failure_signature",
    "known_bad_config",
    "make_workload",
    "replay",
    "run_one",
    "shrink_trace",
]
