"""Fig 9 — CPU consumption breakdown by activity."""

from repro.bench.experiments import table1_table2_fig9 as trio
from repro.sim.metrics import CPU_OTHER, CPU_REAL_WORK, CPU_SYNC


def test_fig9_breakdown(benchmark, record_report):
    out = record_report("fig9_breakdown")
    rows = benchmark.pedantic(trio.run, rounds=1, iterations=1)
    trio.render_fig9(rows, out)
    out.save(rows)

    by_name = {row["approach"]: row for row in rows}
    pa = by_name["pa-tree"]["cpu_breakdown"]
    shared = by_name["shared"]["cpu_breakdown"]
    dedicated = by_name["dedicated"]["cpu_breakdown"]

    # PA spends the plurality of its cycles on real index work, and
    # synchronization is a small fraction (paper: sync+sched small,
    # real work dominant)
    assert pa[CPU_REAL_WORK] == max(pa.values())
    assert pa[CPU_SYNC] < 0.2
    assert pa[CPU_OTHER] < 0.05  # no context switches

    # baselines: real work is a sliver (paper: <20%); most cycles go
    # to synchronization, wasted waiting, and context switches
    assert shared[CPU_REAL_WORK] < 0.2
    assert dedicated[CPU_REAL_WORK] < 0.2
    assert shared[CPU_SYNC] + shared[CPU_OTHER] > 0.6
    assert dedicated[CPU_OTHER] > 0.5  # spin-wait + switches dominate
