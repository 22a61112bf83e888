"""Fig 7 — throughput of PA-Tree vs shared/dedicated across threads."""

from repro.bench.experiments import fig7_fig8


def test_fig7_throughput(benchmark, record_report):
    out = record_report("fig7_throughput")
    rows = benchmark.pedantic(fig7_fig8.run, rounds=1, iterations=1)
    fig7_fig8.render(rows, out)
    out.save(rows)

    for mix in fig7_fig8.MIXES:
        pa = next(
            r for r in rows if r["mix"] == mix and r["approach"] == "pa-tree"
        )
        best_shared = fig7_fig8.best_baseline(rows, mix, "shared")
        best_dedicated = fig7_fig8.best_baseline(rows, mix, "dedicated")
        # headline: single-threaded PA beats the baselines' best thread
        # count by a large factor (paper: at least 5x; assert > 3x)
        assert pa["throughput_ops"] > 3 * best_shared["throughput_ops"]
        assert pa["throughput_ops"] > 3 * best_dedicated["throughput_ops"]
        # baselines need many threads: 1 thread is far below their best
        for approach in ("shared", "dedicated"):
            one = next(
                r
                for r in rows
                if r["mix"] == mix and r["approach"] == approach and r["threads"] == 1
            )
            best = fig7_fig8.best_baseline(rows, mix, approach)
            assert best["throughput_ops"] > 4 * one["throughput_ops"]

    # more updates => lower throughput for every approach
    def pa_tp(mix):
        return next(
            r for r in rows if r["mix"] == mix and r["approach"] == "pa-tree"
        )["throughput_ops"]

    assert pa_tp("read_only") > pa_tp("update_heavy")
