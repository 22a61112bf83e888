"""Fig 3 — NVMe device characterization benchmark."""

from repro.bench.experiments import fig3_device


def test_fig3_device(benchmark, record_report):
    out = record_report("fig3_device")
    rows = benchmark.pedantic(
        lambda: fig3_device.run(duration_us=30_000), rounds=1, iterations=1
    )
    fig3_device.render(rows, out)
    out.save(rows)

    by_qd, by_cycle = rows
    iops_series, latency_series = by_qd["iops"], by_qd["latency_us"]
    c_iops, c_latency = by_cycle["iops"], by_cycle["latency_us"]
    reads = iops_series["write=0%"]
    writes = iops_series["write=100%"]
    # (a) queue depth dominates: >10x IOPS from QD1 to saturation
    assert max(reads) / reads[0] > 10
    # writes are slower than reads at every depth
    assert all(w < r for w, r in zip(writes, reads))
    # (b) latency grows once channels saturate
    lat_reads = latency_series["write=0%"]
    assert lat_reads[-1] > lat_reads[0] * 3
    # (c) probing too often and too rarely both lose IOPS
    iops_curve = c_iops["iops"]
    peak = max(iops_curve)
    assert iops_curve[0] < peak          # cycle ~0 is worse than the best
    assert iops_curve[-1] < peak * 0.75  # cycle 200us is clearly worse
    # (c) latency grows with long probe cycles
    lat_curve = c_latency["latency_us"]
    assert lat_curve[-1] > min(lat_curve) * 1.5
