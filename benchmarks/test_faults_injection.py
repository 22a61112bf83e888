"""Faults — goodput and recovery under injected device errors."""

import json
import os

from repro.bench.experiments import faults_injection

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def test_faults_injection(benchmark, record_report):
    out = record_report("faults")
    rows = benchmark.pedantic(faults_injection.run, rounds=1, iterations=1)
    faults_injection.render(rows, out)
    out.save(rows)

    def arm(name, **match):
        return next(
            r
            for r in rows
            if r["arm"] == name
            and all(r[key] == value for key, value in match.items())
        )

    clean = arm("errors", read_err=0.0)
    n_ops = clean["ops"]

    # the zero-rate arm is indistinguishable from a healthy device
    assert clean["goodput_ops"] == n_ops
    assert clean["media_errors_injected"] == 0
    assert clean["io_retries"] == 0
    assert clean["io_errors_surfaced"] == 0

    # transient errors are absorbed by the driver's bounded retry:
    # goodput stays full while injections (and retries) climb with rate
    error_rows = [r for r in rows if r["arm"] == "errors"]
    injections = [r["media_errors_injected"] for r in error_rows]
    assert injections == sorted(injections)
    assert injections[-1] > 0
    for row in error_rows:
        assert row["goodput_ops"] + row["failed_ops"] == n_ops
        # accounting chain: every injected error was retried or surfaced
        assert row["media_errors_injected"] == (
            row["io_retries"] + row["io_errors_surfaced"]
        )
        assert row["lost_writes"] == 0

    # retry keeps the moderate-rate arms loss-free end to end
    assert arm("errors", read_err=0.01)["failed_ops"] == 0
    assert arm("errors", read_err=0.01)["io_retries"] > 0

    # stragglers inflate tail latency without touching the error path
    spikes = arm("spikes")
    assert spikes["spikes_injected"] > 0
    assert spikes["goodput_ops"] == n_ops
    assert spikes["io_errors_surfaced"] == 0
    assert spikes["p99_latency_us"] > 2 * clean["p99_latency_us"]

    # poisoned pages surface non-retriable typed errors (no retries)
    poison = arm("poison")
    assert poison["poison_read_failures"] > 0
    assert poison["failed_ops"] > 0
    assert poison["goodput_ops"] + poison["failed_ops"] == n_ops
    assert poison["io_retries"] == 0
    assert poison["failed_ops"] == poison["io_errors_surfaced"]

    # deterministic: a second run reproduces the rows exactly
    again = faults_injection.run()
    assert again == rows

    # the persisted artifact matches what the run produced
    with open(os.path.join(RESULTS_DIR, "BENCH_faults.json")) as handle:
        persisted = json.load(handle)
    assert persisted == json.loads(json.dumps(rows))
