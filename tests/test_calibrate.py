"""``calibrate.run_fixed_depth``, the closed-loop driver behind every
point of the calibration sweep, on the two backends whose clock is
purely virtual: it stops the run at the probe tick that reaps the last
completion, dispatching nothing after it, and a seed fixes the run."""

import pytest

from repro.backend import SimNvmeBackend, TraceReplayBackend
from repro.backend.calibrate import run_fixed_depth
from repro.backend.trace_io import TraceWriter
from repro.nvme.command import OP_READ, OP_WRITE
from repro.nvme.device import DeviceProfile
from repro.sim.engine import Engine

N_OPS = 60

PROFILE = DeviceProfile(
    name="calibrate-test", channels=4, read_service_ns=2_000,
    write_service_ns=3_000, service_sigma=0.1, page_size=512,
    capacity_pages=4_096,
)


def _trace(path):
    writer = TraceWriter(path, backend="file", page_size=512, channels=4)
    for index in range(40):
        writer.record(OP_READ, index + 1, 1_500 + 700 * (index % 4), qd=1)
        writer.record(OP_WRITE, index + 1, 2_500 + 900 * (index % 3), qd=1)
    writer.close()
    return path


def _run(kind, depth, tmp_path):
    """One run, with an unrelated event pending a second ahead; returns
    its stats, its engine and, for every probe that reaped something,
    (clock, events dispatched, completions so far)."""
    engine = Engine(seed=7)
    engine.schedule(10**9, pytest.fail, "the run went on past its last op")
    if kind == "sim":
        backend = SimNvmeBackend(engine, PROFILE)
    else:
        trace = _trace(str(tmp_path / "trace.jsonl"))
        backend = TraceReplayBackend(engine, trace, profile=PROFILE)
    reaped = []
    probe = backend.probe

    def recorded_probe(qpair, *args):
        completions = probe(qpair, *args)
        if completions:
            total = len(completions) + (reaped[-1][2] if reaped else 0)
            reaped.append((engine.now, engine.dispatched, total))
        return completions

    backend.probe = recorded_probe
    stats = run_fixed_depth(backend, N_OPS, depth)
    backend.close()
    return stats, engine, reaped


@pytest.mark.parametrize("depth", [1, 8])
@pytest.mark.parametrize("kind", ["sim", "replay"])
def test_the_run_stops_at_the_probe_that_reaps_the_last_completion(
    kind, depth, tmp_path,
):
    stats, engine, reaped = _run(kind, depth, tmp_path)
    assert stats["ops"] == N_OPS
    assert reaped[-1][2] == N_OPS
    # the clock is where that probe ran and no event was dispatched
    # after it: the one a second ahead is still pending
    assert (engine.now, engine.dispatched) == reaped[-1][:2]
    assert len(engine.events) == 1
    assert stats["elapsed_us"] == engine.now / 1000.0
    assert stats["depth"] == depth and stats["mean_latency_us"] > 0


@pytest.mark.parametrize("kind", ["sim", "replay"])
def test_a_seed_fixes_the_run(kind, tmp_path):
    first = _run(kind, 4, tmp_path)[0]
    assert _run(kind, 4, tmp_path)[0] == first
