"""Fig 14 — strong vs weak persistent buffering across buffer sizes."""

from repro.bench.experiments import fig14_buffering


def test_fig14_buffering(benchmark, record_report):
    out = record_report("fig14_buffering")
    rows = benchmark.pedantic(fig14_buffering.run, rounds=1, iterations=1)
    fig14_buffering.render(rows, out)
    out.save(rows)

    strong = {
        row["buffer_pages"]: row for row in rows if row["persistence"] == "strong"
    }
    weak = {row["buffer_pages"]: row for row in rows if row["persistence"] == "weak"}
    sizes = sorted(strong)

    # buffering helps: the largest buffer clearly beats no buffer
    assert strong[sizes[-1]]["throughput_ops"] > 1.5 * strong[0]["throughput_ops"]
    # even a tiny buffer gives a boost (root + upper inner nodes)
    assert strong[sizes[1]]["throughput_ops"] > 1.1 * strong[0]["throughput_ops"]
    # read I/O volume shrinks monotonically-ish with buffer size
    assert strong[sizes[-1]]["device_reads"] < strong[0]["device_reads"]

    # weak persistence merges writes: fewer device writes than strong
    for size in weak:
        assert weak[size]["device_writes"] < strong[size]["device_writes"]
    # and achieves at least the strong variant's throughput
    largest = sizes[-1]
    assert weak[largest]["throughput_ops"] >= 0.95 * strong[largest]["throughput_ops"]
