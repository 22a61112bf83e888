"""Fig 10 — probing strategy comparison."""

from repro.bench.experiments import fig10_probing


def test_fig10_probing(benchmark, record_report):
    out = record_report("fig10_probing")
    rows = benchmark.pedantic(fig10_probing.run, rounds=1, iterations=1)
    fig10_probing.render(rows, out)
    out.save(rows)

    by_name = {row["strategy"]: row for row in rows}
    aware = by_name["workload-aware"]
    avg = by_name["avg(t)"]
    fixed = {
        int(name.split()[1][:-2]): row
        for name, row in by_name.items()
        if name.startswith("fixed")
    }

    best_fixed_tp = max(row["throughput_ops"] for row in fixed.values())
    # workload-aware beats or matches the best fixed rate and beats avg(t)
    assert aware["throughput_ops"] >= 0.95 * best_fixed_tp
    assert aware["throughput_ops"] > avg["throughput_ops"] * 0.99
    # probing continuously (cycle 0) is clearly worse than the best
    assert fixed[0]["throughput_ops"] < 0.85 * best_fixed_tp
    # probing too rarely (200us) degrades both throughput and latency
    assert fixed[200]["throughput_ops"] < 0.9 * best_fixed_tp
    assert fixed[200]["mean_latency_us"] > aware["mean_latency_us"]
