"""Table I — runtime statistics of the three approaches."""

from repro.bench.experiments import table1_table2_fig9 as trio


def test_table1_stats(benchmark, record_report):
    out = record_report("table1_stats")
    rows = benchmark.pedantic(trio.run, rounds=1, iterations=1)
    trio.render_table1(rows, out)
    out.save(rows)

    by_name = {row["approach"]: row for row in rows}
    pa = by_name["pa-tree"]
    shared = by_name["shared"]
    dedicated = by_name["dedicated"]

    # PA keeps far more outstanding I/Os with a single thread...
    assert pa["outstanding_avg"] > 2 * shared["outstanding_avg"]
    assert pa["outstanding_avg"] > 2 * dedicated["outstanding_avg"]
    # ...achieving several times the IOPS (paper: 387K vs 58-68K)
    assert pa["iops"] > 3 * shared["iops"]
    assert pa["iops"] > 3 * dedicated["iops"]
    # while consuming about one core vs several
    assert pa["cores_used"] < 1.3
    assert dedicated["cores_used"] > 4.0
    assert shared["cores_used"] > 1.5
    # and context switches orders of magnitude lower (paper: 12 vs millions)
    assert pa["context_switches"] <= 10
    assert shared["context_switches"] > 1_000 * max(pa["context_switches"], 1)
    # shared (blocking handoff) switches more than dedicated (polling)
    assert shared["context_switches"] > dedicated["context_switches"]
