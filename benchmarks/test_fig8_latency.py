"""Fig 8 — operation latency of PA-Tree vs baselines across threads."""

from repro.bench.experiments import fig7_fig8


def test_fig8_latency(benchmark, record_report):
    out = record_report("fig8_latency")
    rows = benchmark.pedantic(fig7_fig8.run, rounds=1, iterations=1)
    fig7_fig8.render(rows, out)
    out.save(rows)

    for mix in fig7_fig8.MIXES:
        for approach in ("shared", "dedicated"):
            arm = [
                r for r in rows if r["mix"] == mix and r["approach"] == approach
            ]
            low = next(r for r in arm if r["threads"] == 1)
            high = next(r for r in arm if r["threads"] == max(a["threads"] for a in arm))
            # deploying many threads blows up latency (paper: >10000us
            # at 128 threads; assert an order of magnitude growth)
            assert high["mean_latency_us"] > 8 * low["mean_latency_us"]
            assert high["mean_latency_us"] > 5_000

        pa = next(r for r in rows if r["mix"] == mix and r["approach"] == "pa-tree")
        # PA keeps latency far below the baselines' high-thread regime
        # while sustaining much higher throughput
        assert pa["mean_latency_us"] < high["mean_latency_us"] / 4
