"""Fig 11 — PA vs PAD vs PAD+ (dedicated polling thread variants)."""

from repro.bench.experiments import fig11_dedicated_polling


def test_fig11_dedicated_polling(benchmark, record_report):
    out = record_report("fig11_dedicated_polling")
    rows = benchmark.pedantic(fig11_dedicated_polling.run, rounds=1, iterations=1)
    fig11_dedicated_polling.render(rows, out)
    out.save(rows)

    by_name = {row["variant"]: row for row in rows}
    pa = by_name["PA-Tree"]
    pad = by_name["PAD-Tree"]
    pad_plus = by_name["PAD+-Tree"]

    # PAD: continuous polling burns a second core and over-probes the
    # device, costing throughput
    assert pad["cores_used"] > pa["cores_used"] + 0.5
    assert pad["throughput_ops"] < pa["throughput_ops"]
    # PAD+: model-gated polling recovers the throughput but the extra
    # thread still buys nothing over inline probing
    assert pad_plus["throughput_ops"] > pad["throughput_ops"]
    assert pad_plus["throughput_ops"] <= pa["throughput_ops"] * 1.02
    assert pad["probes"] > 3 * pa["probes"]
