"""Batch pipeline — vectored ops/sec versus batch size."""

import json
import os

from repro.bench.experiments import batch_pipeline

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def test_batch_pipeline(benchmark, record_report):
    out = record_report("batch")
    rows = benchmark.pedantic(batch_pipeline.run, rounds=1, iterations=1)
    batch_pipeline.render(rows, out)
    out.save(rows)

    def arm(batch_size):
        return next(r for r in rows if r["batch_size"] == batch_size)

    # throughput grows monotonically with batch size: grouping amortizes
    # descents, latch round-trips and doorbells
    tputs = [arm(n)["throughput_ops"] for n in batch_pipeline.BATCH_SIZES]
    assert tputs == sorted(tputs)

    # the headline acceptance bar: >= 1.5x ops/sec at batch size 64
    # against the size-1 (single-op code path) arm, same spec stream
    assert arm(64)["throughput_ops"] >= 1.5 * arm(1)["throughput_ops"]

    # grouping is real: mean leaf-group size grows with the batch, and
    # the grouped arms issue materially fewer device writes
    assert arm(64)["mean_group_size"] > 2.0
    assert arm(256)["mean_group_size"] > arm(64)["mean_group_size"]
    assert arm(64)["device_writes"] < 0.7 * arm(1)["device_writes"]

    # every sweep point ran the whole stream and validated its tree
    for row in rows:
        assert row["specs"] == rows[0]["specs"]
        assert row["groups"] > 0

    # determinism: a fresh same-seed run reproduces the rows exactly
    assert batch_pipeline.run() == rows

    # the persisted artifact matches what the run produced
    with open(os.path.join(RESULTS_DIR, "BENCH_batch.json")) as handle:
        persisted = json.load(handle)
    assert persisted == json.loads(json.dumps(rows))
