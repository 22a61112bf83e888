"""Unit tests for the event queue and engine dispatch."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Engine
from repro.sim.events import EventQueue


def test_events_fire_in_time_order():
    engine = Engine()
    order = []
    engine.schedule_at(300, order.append, "c")
    engine.schedule_at(100, order.append, "a")
    engine.schedule_at(200, order.append, "b")
    engine.run()
    assert order == ["a", "b", "c"]


def test_same_time_fires_in_push_order():
    # ties fall through to the sequence number and never to the
    # callbacks, which do not order
    engine = Engine()
    order = []
    for name in "abcde":
        engine.schedule_at(50, lambda n=name: order.append(n))
    engine.run()
    assert order == list("abcde")


def test_cancelled_events_are_skipped():
    engine = Engine()
    fired = []
    handle = engine.schedule(10, fired.append, "x")
    engine.schedule(20, fired.append, "y")
    engine.cancel(handle)
    assert len(engine.events) == 1
    engine.run()
    assert (fired, engine.now, engine.dispatched) == (["y"], 20, 1)


def test_cancel_is_idempotent():
    queue = EventQueue()
    handle = queue.push(10, lambda: None)
    queue.cancel(handle)
    queue.cancel(handle)
    assert len(queue) == 0
    assert queue.peek_time() is None


def test_cancelling_a_fired_event_is_a_no_op():
    # a holder of a stale handle (a sampler that stopped rescheduling)
    # must not drive the live count below what the heap holds
    engine = Engine()
    queue = engine.events
    stale = engine.schedule(10, lambda: None)
    engine.schedule(20, lambda: None)
    engine.run(until_ns=15)
    engine.cancel(stale)
    assert (len(queue), bool(queue), queue.peek_time()) == (1, True, 20)
    engine.run()
    engine.cancel(stale)
    assert (len(queue), bool(queue), engine.dispatched) == (0, False, 2)


def test_arguments_reach_the_callback():
    engine = Engine()
    seen = []
    engine.schedule(10, lambda *args: seen.append((engine.now, args)), 1, "b")
    engine.schedule_at(20, lambda *args: seen.append((engine.now, args)), [3])
    engine.schedule(30, lambda *args: seen.append((engine.now, args)))
    engine.run()
    assert seen == [(10, (1, "b")), (20, ([3],)), (30, ())]


def test_stop_ends_the_run_after_the_running_callback():
    engine = Engine()
    seen = []

    def stopper():
        engine.stop()
        seen.append("rest of the callback")

    engine.schedule(10, stopper)
    engine.schedule(10, seen.append, "same instant, later sequence")
    engine.run(until_ns=50)
    # stopped before the bound: the clock is not taken to until_ns
    assert (seen, engine.now, len(engine.events)) == (
        ["rest of the callback"], 10, 1
    )
    engine.run()
    assert seen[-1] == "same instant, later sequence"


def test_stop_outside_run_does_not_leak_into_the_next_run():
    engine = Engine()
    seen = []
    engine.schedule(10, seen.append, 1)
    engine.stop()
    engine.run()
    assert (seen, engine.now) == ([1], 10)


def test_a_queue_that_runs_backwards_raises():
    engine = Engine()
    engine.schedule(100, lambda: None)
    engine.run()
    engine.events.push(50, lambda: None)  # behind schedule_at's back
    with pytest.raises(ValueError, match="backwards"):
        engine.run()
    assert engine.now == 100


def test_engine_cancel_after_dispatch_keeps_the_queue_consistent():
    engine = Engine()
    handle = engine.schedule(10, lambda: None)
    engine.schedule(30, lambda: None)
    engine.run(until_ns=20)
    engine.cancel(handle)
    assert len(engine.events) == 1
    engine.run()
    assert (engine.now, len(engine.events)) == (30, 0)


def test_peek_time_skips_cancelled():
    queue = EventQueue()
    first = queue.push(10, lambda: None)
    queue.push(30, lambda: None)
    queue.cancel(first)
    assert queue.peek_time() == 30


def test_engine_schedule_advances_clock():
    engine = Engine()
    seen = []
    engine.schedule(1_000, lambda: seen.append(engine.now))
    engine.schedule(2_000, lambda: seen.append(engine.now))
    engine.run()
    assert seen == [1_000, 2_000]
    assert engine.now == 2_000


def test_engine_run_until_ns_stops_and_advances():
    engine = Engine()
    seen = []
    engine.schedule(1_000, lambda: seen.append(1))
    engine.schedule(5_000, lambda: seen.append(2))
    engine.run(until_ns=3_000)
    assert seen == [1]
    assert engine.now == 3_000
    engine.run()
    assert seen == [1, 2]


def test_engine_rejects_negative_delay():
    engine = Engine()
    with pytest.raises(SimulationError):
        engine.schedule(-5, lambda: None)


def test_engine_rejects_past_schedule_at():
    engine = Engine()
    engine.schedule(100, lambda: None)
    engine.run()
    with pytest.raises(SimulationError):
        engine.schedule_at(50, lambda: None)


def test_engine_event_budget_guard():
    engine = Engine(max_events=100)

    def loop():
        engine.schedule(1, loop)

    engine.schedule(1, loop)
    with pytest.raises(SimulationError):
        engine.run()


def test_nested_events_scheduled_from_callbacks():
    engine = Engine()
    seen = []

    def outer():
        seen.append(("outer", engine.now))
        engine.schedule(10, inner)

    def inner():
        seen.append(("inner", engine.now))

    engine.schedule(5, outer)
    engine.run()
    assert seen == [("outer", 5), ("inner", 15)]


def test_rng_streams_are_stable_and_independent():
    a = Engine(seed=1).rng
    b = Engine(seed=1).rng
    assert a.stream("x").random() == b.stream("x").random()
    c = Engine(seed=1).rng
    # requesting streams in a different order must not change values
    c.stream("y")
    first_via_c = c.stream("x").random()
    assert first_via_c == Engine(seed=1).rng.stream("x").random()


def test_rng_different_seeds_differ():
    a = Engine(seed=1).rng.stream("x").random()
    b = Engine(seed=2).rng.stream("x").random()
    assert a != b


def _passive_log(engine, times):
    """Passive entries at ``times`` that log (name, clock) when applied."""
    log = []
    for index, time_ns in enumerate(times):
        engine.schedule_passive_at(
            time_ns, lambda i=index: log.append((i, engine.now))
        )
    return log


def test_a_drained_run_applies_pending_passive_entries_at_their_instants():
    engine = Engine()
    engine.schedule(10, lambda: None)
    log = _passive_log(engine, [40, 25, 40])
    engine.run()
    # in (time, seq) order, each with the clock at its own instant; the
    # clock ends at the last one, past the last event
    assert log == [(1, 25), (0, 40), (2, 40)]
    assert (engine.now, engine.dispatched, engine.inlined) == (40, 1, 3)
    assert (len(engine.events), engine.events.peek_time()) == (0, None)


def test_run_until_applies_the_passive_entries_at_the_bound_and_none_after():
    engine = Engine()
    log = _passive_log(engine, [100, 200, 201])
    engine.schedule(500, lambda: None)
    engine.run(until_ns=200)
    assert (log, engine.now, len(engine.events)) == (
        [(0, 100), (1, 200)], 200, 2
    )
    # with no event left either, the entry past the bound still bounds
    # the run: the clock is taken to until_ns
    engine = Engine()
    log = _passive_log(engine, [100, 300])
    engine.run(until_ns=200)
    assert (log, engine.now, engine.events.peek_time()) == (
        [(0, 100)], 200, 300
    )


def test_stop_leaves_the_passive_entries_after_the_stopping_slot():
    engine = Engine()
    log = []

    def stopper():
        # minted before the stopping callback's slot: applied; at its
        # instant but a later seq, or later: left
        engine.stop()

    engine.schedule_passive_at(10, log.append, "before")
    engine.schedule(10, stopper)
    engine.schedule_passive_at(10, log.append, "same instant, later seq")
    engine.schedule_passive_at(30, log.append, "later")
    engine.run()
    assert (log, engine.now, len(engine.events)) == (["before"], 10, 2)
    engine.run()
    assert log == ["before", "same instant, later seq", "later"]
    assert engine.now == 30


def test_settle_orders_passive_entries_by_the_running_continuation():
    engine = Engine()
    log = []

    def reader(name):
        engine.settle()
        log.append(name)

    engine.schedule_passive_at(10, log.append, "p1")
    engine.schedule(10, reader, "r1")
    engine.schedule_passive_at(10, log.append, "p2")
    engine.schedule(10, reader, "r2")
    engine.schedule_passive_at(20, log.append, "p3")
    # minted inside the run-through below: after the slot it reserved
    engine.schedule(17, engine.schedule_passive_at, 20, log.append, "p4")

    def stepper():
        # a run-through's slot, then an in-place step past a post
        assert engine.run_through(5, lambda: None)
        engine.settle()
        log.append("after run-through at %d" % engine.now)
        assert engine.advance(10) == 1
        engine.settle()
        log.append("after step at %d" % engine.now)

    engine.schedule(15, stepper)
    engine.run()
    assert log == [
        "p1", "r1", "p2", "r2",
        "p3", "after run-through at 20", "p4", "after step at 30",
    ]


def test_peek_time_reports_a_passive_head():
    engine = Engine()
    engine.schedule(50, lambda: None)
    engine.schedule_passive_at(20, lambda: None)
    queue = engine.events
    assert (queue.peek_time(), len(queue)) == (20, 2)
    engine.run(until_ns=30)
    assert (queue.peek_time(), len(queue)) == (50, 1)


def test_a_passive_entry_in_the_past_is_refused():
    engine = Engine()
    engine.schedule(100, lambda: None)
    engine.run()
    with pytest.raises(SimulationError):
        engine.schedule_passive_at(50, lambda: None)
