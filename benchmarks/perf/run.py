"""Entry point of the two-clock benchmark (named in BENCHMARK.json).

    python3 benchmarks/perf/run.py --seed 1                  # all workloads, end to end
    python3 benchmarks/perf/run.py --seed 1 --trace          # all workloads, per layer
    python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1

``python -m benchmarks.perf.run`` from the repository root is the same
command.  Every measurement runs in a fresh child process (child.py),
never two at once: the load generator is one single-threaded process.

*Untraced* (``--trace 0``): at least three repeats per workload, more
until their timed phases add up to ``--seconds``.  ``setup_s`` and
``host_peak_rss_mb`` are the median over the repeats;
``host_ops_per_s`` is the ops of one repeat over the steady seconds of
all of them (progress.py: per event slice the fastest repeat, in
seconds of the reference host); ``sim_*`` metrics,
``events_per_op`` and ``sim_digest`` must be equal across the repeats
or the run fails.  *Traced* (``--trace 1``): one untraced repeat for the public
counters, one repeat under cProfile for host self-time by layer, and
the micro benchmarks.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is non-zero
if any output check failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(os.path.dirname(_HERE))
sys.path.insert(0, _ROOT)

from benchmarks.perf.progress import steady_seconds  # noqa: E402
_CHILD = os.path.join(_HERE, "child.py")
_BENCHMARK_JSON = os.path.join(_ROOT, "BENCHMARK.json")
_NEEDS = (
    os.path.join(_ROOT, "src", "repro", "__init__.py"),
    os.path.join(_ROOT, "tools", "analysis", "layers.toml"),
)

MIN_REPEATS = 3
MAX_REPEATS = 5
CHILD_TIMEOUT_S = 150

class HarnessError(Exception):
    """The harness itself could not measure (not an output-check failure)."""


def load_contract():
    with open(_BENCHMARK_JSON) as handle:
        return json.load(handle)


def calibration_loops_per_s(loops=2_000_000):
    """Pure-python speed of this host: context, never a normaliser."""
    start = time.perf_counter()
    total = 0
    for index in range(loops):
        total += index & 7
    return loops / (time.perf_counter() - start)


def header():
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "platform": sys.platform,
        "calibration_loops_per_s": calibration_loops_per_s(),
    }


def spawn(spec):
    """Run child.py on ``spec``; its last stdout line is the result."""
    try:
        done = subprocess.run(
            [sys.executable, _CHILD, json.dumps(spec)],
            cwd=_ROOT, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise HarnessError("child timed out: %r" % (spec,)) from None
    if done.returncode != 0:
        raise HarnessError(
            "child exited %d: %r" % (done.returncode, spec)
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _spec(name, args, profile=False, mode="run"):
    return {
        "mode": mode, "workload": name, "seed": args.seed,
        "smoke": args.smoke, "profile": profile,
    }


def _check_repeats_agree(repeats, failures):
    """Virtual time is deterministic: every repeat must read the same."""
    first = repeats[0]
    for other in repeats[1:]:
        if (other["sim_digest"], other["sim"]) != (first["sim_digest"], first["sim"]):
            failures.append(
                "virtual-time statistics differ between repeats: %s != %s"
                % (other["sim_digest"][:12], first["sim_digest"][:12])
            )
            return


def _outcome(repeats, extra_failures):
    """correct / attempted / failed over the repeats of one workload."""
    attempted = sum(repeat["attempted"] for repeat in repeats)
    failed = sum(repeat["failed"] for repeat in repeats) + len(extra_failures)
    messages = [m for repeat in repeats for m in repeat["failures"]]
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": min(failed, attempted),
        "failures": messages + extra_failures,
    }


def run_untraced(name, args):
    """End-to-end metrics of one workload, tracing off."""
    repeats = []
    while len(repeats) < MIN_REPEATS or (
        len(repeats) < MAX_REPEATS
        and sum(r["host"]["timed_s"] for r in repeats) < args.seconds
    ):
        repeats.append(spawn(_spec(name, args)))
    failures = []
    _check_repeats_agree(repeats, failures)
    first = repeats[0]
    ops = first["counts"]["ops"]
    progress = [r["host"]["progress"] for r in repeats]
    try:
        steady_s, each_steady_s = steady_seconds(progress)
    except ValueError as exc:  # the repeats ran different events
        raise HarnessError("%s: %s" % (name, exc)) from None
    runs = {
        "host_ops_per_s": [ops / seconds for seconds in each_steady_s],
        "setup_s": [r["host"]["setup_s"] for r in repeats],
        "host_peak_rss_mb": [r["host"]["peak_rss_mb"] for r in repeats],
    }
    for metric, value in first["sim"].items():
        runs[metric] = [r["sim"][metric] for r in repeats]
    result = _outcome(repeats, failures)
    result.update(
        ops=ops,
        latency_samples=first["counts"]["latency_samples"],
        repeats=len(repeats),
        # context: each repeat's timed phase in plain host seconds, and
        # how slow the host ran the calibration while they were measured
        timed_s=[r["host"]["timed_s"] for r in repeats],
        calibration_s=statistics.median(
            sample[2] for samples in progress for sample in samples
        ),
        sim_digest=first["sim_digest"],
        failed_ops_share=result["failed"] / result["attempted"],
        values={metric: statistics.median(v) for metric, v in runs.items()},
        runs=runs,
    )
    result["values"]["host_ops_per_s"] = ops / steady_s
    return result


def run_traced(name, args, micro):
    """Per-layer metrics of one workload: counters, profile, micro."""
    plain = spawn(_spec(name, args))
    traced = spawn(_spec(name, args, profile=True))
    failures = []
    if traced["sim_digest"] != plain["sim_digest"]:
        failures.append(
            "tracing changed a simulated statistic: digest %s != %s"
            % (traced["sim_digest"][:12], plain["sim_digest"][:12])
        )
    ops = plain["counts"]["ops"]
    profile = traced["profile"]
    values = dict(plain["layers"])
    values["sim.host_us_per_event"] = (
        plain["host"]["timed_s"] * 1e6 / plain["counts"]["events"]
    )
    for bucket, seconds in profile["self_s"].items():
        values["host_self_s." + bucket] = seconds
        values["host_calls_per_op." + bucket] = profile["calls"][bucket] / ops
    values["trace_overhead_ratio"] = (
        traced["host"]["timed_s"] / plain["host"]["timed_s"]
    )
    values.update(micro)
    result = _outcome([plain, traced], failures)
    result.update(
        ops=ops,
        sim_digest=plain["sim_digest"],
        values=values,
        timed_s={
            "untraced": plain["host"]["timed_s"],
            "traced": traced["host"]["timed_s"],
        },
        spans=profile["spans"],
        unreported_repro_s=profile["unreported_repro_s"],
        unmapped_repro_s=profile["unmapped_repro_s"],
        open_loop_backlog=plain["open_loop_backlog"],
    )
    return result


def _with_units(values, declared):
    """The contract's metric objects; names must match it both ways."""
    names = [metric["name"] for metric in declared]
    if set(names) != set(values):
        raise HarnessError(
            "metric names drifted from BENCHMARK.json: missing %s, extra %s"
            % (sorted(set(names) - set(values)), sorted(set(values) - set(names)))
        )
    units = {metric["name"]: metric["unit"] for metric in declared}
    return {
        name: {"value": values[name], "unit": units[name]} for name in names
    }


def _print_workload(name, result, metrics):
    extra = ""
    if "repeats" in result:
        extra = "  latency_samples=%d  repeats=%d  calibration_ms=%.3f" % (
            result["latency_samples"], result["repeats"],
            result["calibration_s"] * 1e3,
        )
    print(
        "== %s  ops=%d%s  sim_digest=%s  correct=%s"
        % (name, result["ops"], extra, result["sim_digest"][:16], result["correct"])
    )
    for metric, entry in metrics.items():
        print("  %-42s %16.6f %s" % (metric, entry["value"], entry["unit"]))
    if "failed_ops_share" in result:
        print("  %-42s %16.6f share" % ("failed_ops_share", result["failed_ops_share"]))
    for message in result["failures"]:
        print("  FAILED: %s" % message)


def parse_args(argv, contract):
    names = [workload["name"] for workload in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, default=None,
                        help="one workload (default: all seven)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(contract["run_seconds"]),
                        help="timed-phase budget of an untraced workload run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: per-layer metrics")
    parser.add_argument("--out", default=None, help="write the full result JSON here")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for the self-test; numbers mean nothing")
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = 0.0  # the minimum number of repeats, no more
    args.names = [args.workload] if args.workload else names
    return args


def main(argv=None):
    missing = [path for path in _NEEDS + (_BENCHMARK_JSON,) if not os.path.exists(path)]
    if missing:
        print("cannot run: %s not found" % ", ".join(missing), file=sys.stderr)
        return 2
    contract = load_contract()
    args = parse_args(argv, contract)
    head = header()
    print("# " + json.dumps(head, sort_keys=True))
    declared = contract["per_layer"] if args.trace else contract["end_to_end"]
    try:
        micro = {}
        if args.trace:
            micro = spawn(_spec(None, args, mode="micro"))["micro"]
        results = {}
        metrics = {}
        for name in args.names:
            if args.trace:
                results[name] = run_traced(name, args, micro)
            else:
                results[name] = run_untraced(name, args)
            metrics[name] = _with_units(results[name]["values"], declared)
            _print_workload(name, results[name], metrics[name])
    except HarnessError as exc:
        print("harness error: %s" % exc, file=sys.stderr)
        return 2
    if args.out:
        document = {
            "schema": "patree-perf/1", "header": head, "seed": args.seed,
            "trace": args.trace, "smoke": args.smoke,
            "seconds": args.seconds, "workloads": results,
        }
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
    correct = all(result["correct"] for result in results.values())
    summary = {
        "correct": correct,
        "attempted": sum(result["attempted"] for result in results.values()),
        "failed": sum(result["failed"] for result in results.values()),
        "metrics": metrics[args.names[0]] if args.workload else metrics,
    }
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
