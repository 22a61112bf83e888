"""Command-line schedule fuzzer.

``python -m repro.fuzz`` explores N seeded schedules per target,
checks differential parity and invariants, shrinks any failure to a
minimal reproducer and (with ``--out``) writes JSON artifacts a CI
job can upload::

    python -m repro.fuzz --seeds 25 --target all
    python -m repro.fuzz --seeds 5 --ops 150 --out /tmp/fuzz-smoke
    python -m repro.fuzz --known-bad --out /tmp/fuzz-smoke
    python -m repro.fuzz --replay /tmp/fuzz-smoke/fuzz_repro_patree_1.json

Exit codes: 0 = clean (or, for ``--known-bad`` / ``--replay``, the
expected failure reproduced), 1 = fuzzing found failures, 2 = a
known-bad or replay run did *not* reproduce its failure, a usage
error, or a ``--replay`` file that is not a reproducer.
"""

import argparse
import json
import os
import sys

from repro.bench.cli import positive_int
from repro.fuzz.harness import (
    FuzzRunConfig,
    config_from_jsonable,
    explore,
    known_bad_config,
    replay,
)

TARGET_CHOICES = ("patree", "lsm", "sharded", "all")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="seeded schedule-exploration fuzzer with "
        "differential parity checking",
    )
    parser.add_argument("--seeds", type=positive_int, default=8,
                        help="number of seeds to explore, from 1 (default 8)")
    parser.add_argument("--target", choices=TARGET_CHOICES, default="patree")
    parser.add_argument("--ops", type=positive_int, default=200,
                        help="point ops per run (default 200)")
    parser.add_argument("--sync-oracle", action="store_true",
                        help="also replay each batch under the blocking "
                        "interpreter (patree target, fault-free runs)")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="write fuzz_report/_repro/_postmortem JSONs")
    parser.add_argument("--known-bad", action="store_true",
                        help="run the seeded known-bad scenario and "
                        "verify explore -> shrink -> replay end to end")
    parser.add_argument("--replay", default=None, metavar="REPRO_JSON",
                        help="replay a reproducer file instead of exploring")
    return parser


def _make_config(args, target):
    return FuzzRunConfig(
        target=target, n_ops=args.ops, sync_oracle=args.sync_oracle
    )


def _dump(path, payload):
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, default=repr)
        handle.write("\n")


def _write_artifacts(report, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    target = report["target"]
    _dump(os.path.join(out_dir, "fuzz_report_%s.json" % target), report)
    for failure in report["failures"]:
        seed = failure["seed"]
        base = "%s_%d" % (target, seed)
        _dump(
            os.path.join(out_dir, "fuzz_repro_%s.json" % base),
            failure["reproducer"],
        )
        _dump(
            os.path.join(out_dir, "fuzz_postmortem_%s.json" % base),
            failure["postmortem"],
        )


def _print_report(report, echo):
    echo("=== fuzz %s: %d seed(s), %d failure(s) ===" % (
        report["target"], report["seeds_explored"], report["failures_found"]))
    echo("seed      verdict       ops  decisions  vtime_us")
    for row in report["results"]:
        echo("%-8d  %-10s  %5d  %9d  %8d" % (
            row["seed"],
            "ok" if row["ok"] else row["kind"],
            row["ops"],
            row["decisions"],
            row["virtual_time_us"],
        ))
    for failure in report["failures"]:
        shrink = failure["shrink"]
        echo("failure seed=%d %s: %s" % (
            failure["seed"], failure["kind"], failure["message"]))
        echo("  reproducer: %d -> %d decision(s) in %d replay(s), "
             "replay %s" % (
                 shrink["original_decisions"],
                 shrink["shrunk_decisions"],
                 shrink["replays"],
                 "verified" if shrink["verified"] else "NOT verified",
             ))


def _load_reproducer(path):
    """The ``fuzz_repro_*.json`` payload at ``path``, or None if the
    file is not one (a report, a postmortem, not JSON at all)."""
    try:
        with open(path) as handle:
            repro = json.load(handle)
    except (OSError, ValueError):
        return None
    if not isinstance(repro, dict) or not {"seed", "config", "trace"} <= repro.keys():
        return None
    return repro


def _run_replay(args, echo):
    repro = _load_reproducer(args.replay)
    if repro is None:
        echo("error: %s is not a fuzz reproducer (a fuzz_repro_*.json)"
             % args.replay)
        return 2
    cfg = config_from_jsonable(repro["config"])
    result = replay(repro["seed"], cfg, repro["trace"])
    failure = result["failure"]
    expected = repro.get("signature")
    echo("replay seed=%d target=%s: %s" % (
        repro["seed"], cfg.target,
        "ok" if failure is None else
        "%s (%s)" % (failure["kind"], failure["message"])))
    if expected is None:
        return 0 if failure is None else 1
    if failure is not None and failure["signature"] == list(expected):
        echo("expected failure signature reproduced")
        return 0
    echo("expected signature %r NOT reproduced" % (expected,))
    return 2


def _run_known_bad(args, echo):
    cfg = known_bad_config(_make_config(args, "patree"))
    report = explore(cfg, [1])
    _print_report(report, echo)
    if args.out:
        _write_artifacts(report, args.out)
    if report["failures_found"] == 0:
        echo("known-bad scenario did NOT fail — hook sites are broken")
        return 2
    if not all(f["shrink"]["verified"] for f in report["failures"]):
        echo("known-bad reproducer did NOT replay to the same failure")
        return 2
    echo("known-bad scenario reproduced, shrunk and replay-verified")
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)

    def echo(line):
        print(line)  # patlint: ignore[PA404] -- CLI tees to stdout

    if args.replay:
        return _run_replay(args, echo)
    if args.known_bad:
        return _run_known_bad(args, echo)

    targets = ("patree", "lsm", "sharded") if args.target == "all" \
        else (args.target,)
    seeds = list(range(1, 1 + args.seeds))
    total_failures = 0
    for target in targets:
        report = explore(_make_config(args, target), seeds)
        _print_report(report, echo)
        if args.out:
            _write_artifacts(report, args.out)
        total_failures += report["failures_found"]
    return 1 if total_failures else 0


if __name__ == "__main__":
    sys.exit(main())
