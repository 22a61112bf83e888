"""A/B comparison of two (or more pairs of) untraced --out files.

    python -m benchmarks.perf.compare A.json B.json [A2.json B2.json ...]

A is the base (the parent commit), B the change.  Several pairs pool
their repeats per side, which is how the ten alternating pairs the
choosing-metrics guide asks for are fed in.  One row per workload and
end-to-end metric: both medians with their quartiles, the ratio B/A
with its base, and a verdict from the bounds in ``BENCHMARK.json``:

``within``      B's median is no worse than A's by more than the bound
``regressed``   it is worse by more than the bound
``improved``    it is better by more than the spread of A's own runs
``unresolved``  A's own spread (IQR / median) exceeds the bound, so the
                metric cannot be called unchanged — unless every run of
                B reads better than every run of A

The exit code is 1 when any row regressed.  ``sim_digest`` equality is
its own column: a change meant only to speed up the simulator must
keep it ``same`` on every workload.
"""

import json
import os
import statistics
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load_runs(path):
    """workload -> {"runs": metric -> values, "digest": str} of one file."""
    with open(path) as handle:
        document = json.load(handle)
    document = document.get("untraced", document)  # baseline.json holds both
    return {
        name: {"runs": result["runs"], "digest": result["sim_digest"]}
        for name, result in document["workloads"].items()
    }


def pool(paths):
    """Merge several files of one side: repeats concatenate per metric."""
    merged = {}
    for path in paths:
        for name, entry in load_runs(path).items():
            side = merged.setdefault(name, {"runs": {}, "digests": set()})
            side["digests"].add(entry["digest"])
            for metric, values in entry["runs"].items():
                side["runs"].setdefault(metric, []).extend(values)
    return merged


def quartiles(values):
    """(q1, median, q3); a single run has no spread."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(a_values, b_values, better, bound):
    """One of within / regressed / improved / unresolved."""
    a_q1, a_med, a_q3 = quartiles(a_values)
    b_med = statistics.median(b_values)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b_med - a_med) / abs(a_med) if a_med else 0.0
    spread = (a_q3 - a_q1) / abs(a_med) if a_med else 0.0
    if better == "lower":
        all_better = max(b_values) < min(a_values)
    else:
        all_better = min(b_values) > max(a_values)
    if spread > bound:
        return "improved" if all_better else "unresolved"
    if worse_by > bound:
        return "regressed"
    if -worse_by > spread:
        return "improved"
    return "within"


def compare(a_paths, b_paths, contract, out=print):
    """Print the table; returns the number of regressed rows."""
    side_a = pool(a_paths)
    side_b = pool(b_paths)
    regressed = 0
    out(
        "%-17s %-25s %-5s %14s %-27s %14s %-27s %-22s %-10s %s"
        % ("workload", "metric", "unit", "A median", "A [q1, q3]", "B median",
           "B [q1, q3]", "B/A (base A)", "verdict", "sim_digest")
    )
    for workload in contract["workloads"]:
        name = workload["name"]
        if name not in side_a or name not in side_b:
            continue
        a, b = side_a[name], side_b[name]
        digest = "same" if a["digests"] == b["digests"] else "DIFFERENT"
        for metric in contract["end_to_end"]:
            a_values = a["runs"][metric["name"]]
            b_values = b["runs"][metric["name"]]
            a_q1, a_med, a_q3 = quartiles(a_values)
            b_q1, b_med, b_q3 = quartiles(b_values)
            row = verdict(a_values, b_values, metric["better"], metric["bound"])
            regressed += row == "regressed"
            out(
                "%-17s %-25s %-5s %14.6g %-27s %14.6g %-27s %-22s %-10s %s"
                % (
                    name, metric["name"], metric["unit"],
                    a_med, "[%.6g, %.6g]" % (a_q1, a_q3),
                    b_med, "[%.6g, %.6g]" % (b_q1, b_q3),
                    "%.4f of %.6g" % (b_med / a_med if a_med else 0.0, a_med),
                    row, digest,
                )
            )
    return regressed


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) < 2 or len(argv) % 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with open(os.path.join(_ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    return 1 if compare(argv[0::2], argv[1::2], contract) else 0


if __name__ == "__main__":
    sys.exit(main())
