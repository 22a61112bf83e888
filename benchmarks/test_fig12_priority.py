"""Fig 12 — prioritized execution vs key skewness."""

from repro.bench.experiments import fig12_priority


def test_fig12_priority(benchmark, record_report):
    out = record_report("fig12_priority")
    rows = benchmark.pedantic(fig12_priority.run, rounds=1, iterations=1)
    fig12_priority.render(rows, out)
    out.save(rows)

    def arm(alpha, prioritized):
        return next(
            r
            for r in rows
            if r["alpha"] == alpha
            and r["prioritized"] == ("yes" if prioritized else "no")
        )

    alphas = sorted({row["alpha"] for row in rows})
    low, high = alphas[0], alphas[-1]

    # contention (latch waits) grows with skew
    assert arm(high, True)["latch_waits"] > arm(low, True)["latch_waits"]

    # prioritizing write-latch holders releases hot latches sooner:
    # clear throughput and tail-latency wins under high skew
    assert arm(high, True)["throughput_ops"] > 1.1 * arm(high, False)["throughput_ops"]
    assert arm(high, True)["p99_latency_us"] < 0.8 * arm(high, False)["p99_latency_us"]
    # and fewer operations ever block on a latch
    assert arm(high, True)["latch_waits"] < arm(high, False)["latch_waits"]

    # the margin grows with skew (paper's observation)
    def margin(alpha):
        return arm(alpha, True)["throughput_ops"] / arm(alpha, False)["throughput_ops"]

    assert margin(high) > margin(low)
