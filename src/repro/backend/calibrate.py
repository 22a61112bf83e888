"""Calibration harness: fit the simulator to a real file backend.

``python -m repro.backend.calibrate`` closes the loop between the
simulated device and real storage in three steps:

1. **Record** — drive a :class:`~repro.backend.file.FileBackend` with
   closed-loop traffic at a sweep of queue depths, recording every
   serviced command (quantized wall-clock syscall durations) into
   JSONL traces;
2. **Fit** — estimate the simulator's calibration constants from the
   recording: per-opcode service times from the depth-1 samples (no
   queueing, so the sample *is* the service time) and the channel
   count from the saturation knee of the depth sweep (effective
   parallelism = throughput x mean service time, which stops growing
   once every channel is busy);
3. **Validate** — re-run the same workload schedule on (a) a
   :class:`~repro.backend.base.SimNvmeBackend` built from the fitted
   :class:`~repro.nvme.device.DeviceProfile` and (b) a
   :class:`~repro.backend.replay.TraceReplayBackend` replaying the
   recorded trace, and report sim-vs-real residuals per depth plus the
   replay throughput ratio.

The emitted report (``CALIBRATION.json``) carries
``"wall_clock_variant": true`` — it is a *measurement* of the host's
storage stack and is never byte-gated (see ``repro.bench diff``).
"""

import argparse
import json
import os
import sys

from repro.backend.base import SimNvmeBackend
from repro.backend.file import FileBackend, file_backend_profile
from repro.backend.replay import TraceReplayBackend
from repro.backend.trace_io import read_trace
from repro.nvme.command import OP_READ, OP_WRITE
from repro.nvme.device import DeviceProfile
from repro.sim.clock import NS_PER_SEC, usec
from repro.sim.engine import Engine

DEFAULT_DEPTHS = (1, 2, 4, 8, 16, 32)


def run_fixed_depth(backend, n_ops, depth, write_ratio=0.3,
                    stream="calibrate"):
    """Closed-loop fixed-depth run on any backend; returns flat stats.

    The operation schedule is a deterministic function of the
    backend engine's seed and ``stream``, so the same (seed, depth,
    ops) triple replays the identical lba/opcode sequence on every
    backend — which is what makes the residual comparison paired.
    """
    engine = backend.engine
    profile = backend.profile
    qpair = backend.alloc_qpair(sq_size=4096, cq_size=4096)
    rng = engine.rng.stream(stream)
    lba_span = min(profile.capacity_pages - 1, 1 << 20)
    state = {"submitted": 0, "completed": 0, "latency_sum_ns": 0}
    start_ns = engine.now

    def submit_one():
        lba = 1 + rng.randrange(lba_span)
        if rng.random() < write_ratio:
            backend.write(qpair, lba, bytes(profile.page_size))
        else:
            backend.read(qpair, lba)
        state["submitted"] += 1

    probe_ns = usec(2)  # the driver is probed every 2 us

    def probe_tick():
        for command in backend.probe(qpair):
            state["completed"] += 1
            state["latency_sum_ns"] += engine.now - command.submit_ns
            if state["submitted"] < n_ops:
                submit_one()
        if state["completed"] < n_ops:
            engine.schedule(probe_ns, probe_tick)
        else:
            engine.stop()

    for _ in range(min(depth, n_ops)):
        submit_one()
    engine.schedule(probe_ns, probe_tick)
    engine.run()

    elapsed_ns = max(engine.now - start_ns, 1)
    completed = state["completed"]
    return {
        "depth": depth,
        "ops": completed,
        "elapsed_us": elapsed_ns / 1000.0,
        "throughput_ops": completed / (elapsed_ns / NS_PER_SEC),
        "mean_latency_us": (
            state["latency_sum_ns"] / completed / 1000.0 if completed else 0.0
        ),
    }


def record_sweep(out_dir, depths=DEFAULT_DEPTHS, n_ops=300, write_ratio=0.3,
                 seed=7, quantum_ns=256):
    """Step 1: record one FileBackend trace + measurement per depth.

    Every depth gets a fresh engine (same seed) and a fresh scratch
    file, so the points are independent and the schedule is identical
    across depths up to admission timing.  Returns the list of
    measured points, each carrying its ``trace`` path.
    """
    os.makedirs(out_dir, exist_ok=True)
    points = []
    for depth in depths:
        engine = Engine(seed=seed)
        backend = FileBackend(engine, quantum_ns=quantum_ns)
        # unrecorded warmup: absorbs the file/page-cache cold start so
        # the measured window samples steady-state syscall timings
        run_fixed_depth(
            backend, max(4 * depth, 32), depth, write_ratio=write_ratio,
            stream="warmup",
        )
        trace_path = os.path.join(out_dir, "qd%d.jsonl" % depth)
        backend.record_to(trace_path)
        point = run_fixed_depth(
            backend, n_ops, depth, write_ratio=write_ratio
        )
        point["trace"] = trace_path
        point["syscalls"] = backend.device.substrate.syscalls
        points.append(point)
        backend.close()
    return points


def _trimmed_mean(values, fallback):
    """Mean of the lowest 90 % of the samples.

    Real syscall timings have a heavy upper tail (cold page cache,
    scheduler preemption); a plain mean lets one 500 us outlier set
    the fitted service time, a trimmed mean tracks the bulk.
    """
    if not values:
        return fallback
    ordered = sorted(values)
    keep = max(1, int(len(ordered) * 0.9))
    kept = ordered[:keep]
    return int(sum(kept) / len(kept))


def fit_profile(points):
    """Step 2: fit a :class:`DeviceProfile` from the recorded sweep.

    * service times: trimmed per-opcode means of the **depth-1**
      trace — with one command outstanding there is no queueing, so
      each recorded duration is a pure service-time sample (the trim
      discards the cold-cache / preemption tail);
    * channels: the saturation knee.  At depth *d* the backend keeps
      ``min(d, channels)`` commands in service, so effective
      parallelism ``throughput x trimmed mean service`` grows
      linearly and then flattens; the sweep-wide maximum (rounded) is
      the channel count;
    * host-interface terms (``fetch_ns`` / ``post_ns`` /
      ``probe_iface_ns``): zeroed — the file backend has no modelled
      PCIe interface, so a fitted profile that kept the sim defaults
      would charge contention the measurement never saw.
    """
    fallback = file_backend_profile()
    qd1 = min(points, key=lambda point: point["depth"])
    trace = read_trace(qd1["trace"])
    read_ns = _trimmed_mean(
        trace.service_times(OP_READ), fallback.read_service_ns
    )
    write_ns = _trimmed_mean(
        trace.service_times(OP_WRITE), fallback.write_service_ns
    )

    parallelism = []
    for point in points:
        sample = read_trace(point["trace"])
        services = [record["service_ns"] for record in sample.records]
        service_s = _trimmed_mean(services, 0) / NS_PER_SEC
        parallelism.append(point["throughput_ops"] * service_s)
    channels = max(1, int(round(max(parallelism)))) if parallelism else 1

    profile = DeviceProfile(
        name="fitted_file",
        channels=channels,
        read_service_ns=max(read_ns, 1),
        write_service_ns=max(write_ns, 1),
        service_sigma=0.0,
        fetch_ns=0,
        post_ns=0,
        probe_iface_ns=0,
        capacity_pages=fallback.capacity_pages,
        page_size=fallback.page_size,
    )
    return profile, {"parallelism": parallelism}


def profile_to_dict(profile):
    return {slot: getattr(profile, slot) for slot in DeviceProfile.__slots__}


def validate(points, profile, n_ops=300, write_ratio=0.3, seed=7):
    """Step 3: sim residuals per depth + replay throughput check.

    Each recorded point is re-run on a fitted-profile sim backend
    (residual = relative error of throughput / mean latency) and the
    deepest point's trace is replayed through the replay backend; the
    acceptance bar is replay throughput within 15% of the recorded
    run.
    """
    residuals = []
    for point in points:
        engine = Engine(seed=seed)
        backend = SimNvmeBackend(engine, profile)
        sim = run_fixed_depth(
            backend, n_ops, point["depth"], write_ratio=write_ratio
        )
        backend.close()
        residuals.append(
            {
                "depth": point["depth"],
                "real_throughput_ops": point["throughput_ops"],
                "sim_throughput_ops": sim["throughput_ops"],
                "throughput_residual": (
                    (sim["throughput_ops"] - point["throughput_ops"])
                    / point["throughput_ops"]
                ),
                "real_mean_latency_us": point["mean_latency_us"],
                "sim_mean_latency_us": sim["mean_latency_us"],
                "latency_residual": (
                    (sim["mean_latency_us"] - point["mean_latency_us"])
                    / point["mean_latency_us"]
                    if point["mean_latency_us"]
                    else 0.0
                ),
            }
        )

    deepest = max(points, key=lambda point: point["depth"])
    engine = Engine(seed=seed)
    backend = TraceReplayBackend(engine, deepest["trace"])
    replay = run_fixed_depth(
        backend, n_ops, deepest["depth"], write_ratio=write_ratio
    )
    backend.close()
    ratio = replay["throughput_ops"] / deepest["throughput_ops"]
    replay_check = {
        "depth": deepest["depth"],
        "recorded_throughput_ops": deepest["throughput_ops"],
        "replay_throughput_ops": replay["throughput_ops"],
        "ratio": ratio,
        "within_15pct": abs(ratio - 1.0) <= 0.15,
    }
    return residuals, replay_check


def calibrate(out_dir, depths=DEFAULT_DEPTHS, n_ops=300, write_ratio=0.3,
              seed=7, quantum_ns=256, out=print):
    """Record -> fit -> validate; writes ``CALIBRATION.json``.

    Returns the report dict.  ``out`` receives the human-readable
    table lines (swap in a sink for tests).
    """
    out("recording FileBackend sweep: depths=%s ops=%d write_ratio=%.2f"
        % (list(depths), n_ops, write_ratio))
    points = record_sweep(
        out_dir, depths=depths, n_ops=n_ops, write_ratio=write_ratio,
        seed=seed, quantum_ns=quantum_ns,
    )
    profile, fit_detail = fit_profile(points)
    out("fitted profile: channels=%d read=%dns write=%dns"
        % (profile.channels, profile.read_service_ns,
           profile.write_service_ns))
    residuals, replay_check = validate(
        points, profile, n_ops=n_ops, write_ratio=write_ratio, seed=seed
    )

    out("")
    out("%6s %14s %14s %9s %12s %12s %9s"
        % ("depth", "real kops/s", "sim kops/s", "resid",
           "real lat us", "sim lat us", "resid"))
    for row in residuals:
        out("%6d %14.1f %14.1f %8.1f%% %12.1f %12.1f %8.1f%%"
            % (row["depth"],
               row["real_throughput_ops"] / 1e3,
               row["sim_throughput_ops"] / 1e3,
               row["throughput_residual"] * 100.0,
               row["real_mean_latency_us"],
               row["sim_mean_latency_us"],
               row["latency_residual"] * 100.0))
    out("")
    out("replay check (qd=%d): recorded %.1f kops/s, replay %.1f kops/s, "
        "ratio %.3f -> %s"
        % (replay_check["depth"],
           replay_check["recorded_throughput_ops"] / 1e3,
           replay_check["replay_throughput_ops"] / 1e3,
           replay_check["ratio"],
           "PASS (within 15%)" if replay_check["within_15pct"]
           else "FAIL (outside 15%)"))

    report = {
        "kind": "patree-calibration",
        "version": 1,
        "wall_clock_variant": True,
        "quantum_ns": quantum_ns,
        "seed": seed,
        "ops_per_depth": n_ops,
        "write_ratio": write_ratio,
        "fitted_profile": profile_to_dict(profile),
        "fit_detail": fit_detail,
        "sweep": [
            {key: value for key, value in point.items()}
            for point in points
        ],
        "residuals": residuals,
        "replay_check": replay_check,
    }
    report_path = os.path.join(out_dir, "CALIBRATION.json")
    with open(report_path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    out("report written to %s" % report_path)
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.backend.calibrate",
        description="Fit simulator device parameters from a real file "
        "backend and report sim-vs-real residuals.",
    )
    parser.add_argument(
        "--out", default="calibration",
        help="directory for traces and CALIBRATION.json",
    )
    parser.add_argument(
        "--ops", type=int, default=300, help="operations per depth point"
    )
    parser.add_argument(
        "--depths", default=",".join(str(d) for d in DEFAULT_DEPTHS),
        help="comma-separated queue depths to sweep",
    )
    parser.add_argument(
        "--write-ratio", type=float, default=0.3,
        help="fraction of operations that are writes",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--quantum-ns", type=int, default=256,
        help="wall-clock quantization bucket (see FileBackend)",
    )
    args = parser.parse_args(argv)
    depths = tuple(
        int(field) for field in args.depths.split(",") if field.strip()
    )
    report = calibrate(
        args.out,
        depths=depths,
        n_ops=args.ops,
        write_ratio=args.write_ratio,
        seed=args.seed,
        quantum_ns=args.quantum_ns,
        out=lambda line="": print(line),  # patlint: ignore[PA404]
    )
    return 0 if report["replay_check"]["within_15pct"] else 1


if __name__ == "__main__":
    sys.exit(main())
