"""One measurement in a fresh interpreter (spawned by run.py).

``child.py '<json spec>'`` builds one workload, runs its timed phase
once (under cProfile when the spec asks for it), checks the outputs and
prints one JSON object as the last line of stdout.  A fresh process per
measurement makes ``setup_s`` and ``host_peak_rss_mb`` mean what a user
starting the simulator would see, and keeps one repeat's caches (the
trained probe model, warmed allocator arenas) out of the next.
"""

import cProfile
import gc
import json
import os
import pstats
import resource
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(os.path.dirname(_HERE))
_SRC = os.path.join(_ROOT, "src")
_LAYERS_TOML = os.path.join(_ROOT, "tools", "analysis", "layers.toml")


def measure(spec):
    """Build, time, check; returns the result dict."""
    from benchmarks.perf.progress import ProgressSampler, reference_seconds

    # set-up time starts before ``import repro``: nothing of the
    # program may be imported above this line
    setup_sampler = ProgressSampler()
    setup_sampler.start()
    from benchmarks.perf import checks, collect, layers
    from benchmarks.perf.rigs import WORKLOADS

    workload = WORKLOADS[spec["workload"]]
    n_ops = workload.smoke_ops if spec["smoke"] else workload.ops
    rig = workload.build(spec["seed"], n_ops)
    profiler = cProfile.Profile() if spec["profile"] else None

    gc.collect()
    before = collect.snapshot(rig)
    marks = collect.mark_gauges(rig)
    setup_sampler.stop()
    # untraced: the sampler's clock, which leaves its own calibration
    # work out; traced: cProfile's tottime is what gets bucketed, and a
    # timer handler would only add a foreign bucket to it
    sampler = ProgressSampler(rig.sim)
    start = time.perf_counter()
    if profiler is None:
        sampler.start()
        rig.run()
        timed_s = sampler.stop()
    else:
        profiler.enable()
        rig.run()
        profiler.disable()
        timed_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    after = collect.snapshot(rig)

    sim, layer_counts, counts = collect.virtual_stats(rig, before, after, marks)
    failures = checks.Failures()
    backlog = None
    if rig.open_source is not None:
        backlog = checks.check_open_loop(rig.open_source, failures)
    items = checks.run_checks(rig, failures)
    rig.close()

    result = {
        "workload": spec["workload"],
        "seed": spec["seed"],
        "attempted": counts["ops"],
        "failed": min(failures.count, counts["ops"]),
        "failures": failures.messages,
        "host": {
            "setup_s": reference_seconds(setup_sampler.samples),
            "timed_s": timed_s,
            "peak_rss_mb": peak_rss_mb,
            "progress": sampler.samples,
        },
        "sim": sim,
        "layers": layer_counts,
        "counts": counts,
        "sim_digest": collect.digest(sim, layer_counts, counts, items),
        "open_loop_backlog": backlog,
    }
    if profiler is not None:
        rows = {
            function: stat[:4]
            for function, stat in pstats.Stats(profiler).stats.items()
        }
        result["profile"] = layers.bucket_profile(
            rows, layers.load_layer_modules(_LAYERS_TOML), _SRC, _HERE
        )
    return result


def micro(spec):
    from benchmarks.perf.micro import run_all

    return {"micro": run_all(smoke=spec["smoke"])}


def main(argv):
    if len(argv) != 1:
        print("usage: child.py '<json spec>'", file=sys.stderr)
        return 2
    spec = json.loads(argv[0])
    sys.path[:0] = [_ROOT, _SRC]
    result = micro(spec) if spec["mode"] == "micro" else measure(spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
