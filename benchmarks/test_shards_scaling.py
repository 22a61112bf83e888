"""Scale-out — sharded multi-device PA-Tree throughput scaling."""

import json
import os

from repro.bench.experiments import shards_scaling

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def test_shards_scaling(benchmark, record_report):
    out = record_report("shards")
    rows = benchmark.pedantic(shards_scaling.run, rounds=1, iterations=1)
    shards_scaling.render(rows, out)
    out.save(rows)

    def arm(mix, shards):
        return next(
            r for r in rows if r["mix"] == mix and r["shards"] == shards
        )

    for mix in ("read_only", "default"):
        # aggregate throughput grows monotonically from 1 to 4 shards
        tputs = [arm(mix, n)["throughput_ops"] for n in (1, 2, 4)]
        assert tputs == sorted(tputs)
        assert tputs[0] < tputs[1] < tputs[2]
        # and keeps growing to 8 (the testbed has 8 cores)
        assert arm(mix, 8)["throughput_ops"] > arm(mix, 4)["throughput_ops"]

    # shared-nothing shards scale near-linearly: >= 2.5x at 4 shards
    # on the device-bound read-heavy arm
    read4 = arm("read_only", 4)
    read1 = arm("read_only", 1)
    assert read4["throughput_ops"] >= 2.5 * read1["throughput_ops"]

    # hash placement keeps the fleet balanced: the slowest shard stays
    # within 2x of the fastest on every multi-shard arm
    for row in rows:
        if row["shards"] > 1:
            assert row["max_shard_tput"] <= 2.0 * row["min_shard_tput"]

    # every admitted operation completed, and device traffic was real
    for row in rows:
        assert row["user_completed"] == row["ops"]
        assert row["device_reads"] > 0

    # the persisted artifact matches what the run produced
    with open(os.path.join(RESULTS_DIR, "BENCH_shards.json")) as handle:
        persisted = json.load(handle)
    assert persisted == json.loads(json.dumps(rows))
