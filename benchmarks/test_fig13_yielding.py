"""Fig 13 — CPU yielding vs input rate."""

from repro.bench.experiments import fig13_yielding


def test_fig13_yielding(benchmark, record_report):
    out = record_report("fig13_yielding")
    rows = benchmark.pedantic(fig13_yielding.run, rounds=1, iterations=1)
    fig13_yielding.render(rows, out)
    out.save(rows)

    def arm(rate, yielding):
        return next(
            r
            for r in rows
            if r["rate"] == rate and r["yielding"] == ("yes" if yielding else "no")
        )

    rates = sorted({row["rate"] for row in rows})
    low_rate = rates[0]

    # without yielding the thread spins: high CPU even at low load
    assert arm(low_rate, False)["cores_used"] > 0.75
    # with yielding, CPU tracks the load: large savings at low rates
    assert arm(low_rate, True)["cores_used"] < 0.5 * arm(low_rate, False)["cores_used"]
    # and no throughput penalty: the offered load is still absorbed
    for rate in rates:
        with_yield = arm(rate, True)["throughput_ops"]
        without = arm(rate, False)["throughput_ops"]
        assert with_yield > 0.9 * without
    # CPU saving shrinks as load grows
    saving_low = arm(rates[0], False)["cores_used"] - arm(rates[0], True)["cores_used"]
    saving_high = arm(rates[-1], False)["cores_used"] - arm(rates[-1], True)["cores_used"]
    assert saving_low > saving_high
