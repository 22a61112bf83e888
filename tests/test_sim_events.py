"""Unit tests for the event queue and engine dispatch."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Engine
from repro.sim.events import EventQueue


def test_events_fire_in_time_order():
    queue = EventQueue()
    order = []
    queue.push(300, lambda: order.append("c"))
    queue.push(100, lambda: order.append("a"))
    queue.push(200, lambda: order.append("b"))
    while queue:
        queue.pop().fn()
    assert order == ["a", "b", "c"]


def test_same_time_fires_in_push_order():
    queue = EventQueue()
    order = []
    for name in "abcde":
        queue.push(50, lambda n=name: order.append(n))
    while queue:
        queue.pop().fn()
    assert order == list("abcde")


def test_cancelled_events_are_skipped():
    queue = EventQueue()
    fired = []
    event = queue.push(10, lambda: fired.append("x"))
    queue.push(20, lambda: fired.append("y"))
    queue.cancel(event)
    assert len(queue) == 1
    while queue:
        queue.pop().fn()
    assert fired == ["y"]


def test_cancel_is_idempotent():
    queue = EventQueue()
    event = queue.push(10, lambda: None)
    queue.cancel(event)
    queue.cancel(event)
    assert len(queue) == 0


def test_cancelling_a_fired_event_is_a_no_op():
    # a holder of a stale handle (a sampler that stopped rescheduling)
    # must not drive the live count below what the heap holds
    queue = EventQueue()
    stale = queue.push(10, lambda: None)
    queue.push(20, lambda: None)
    assert queue.pop() is stale
    queue.cancel(stale)
    assert (len(queue), bool(queue), queue.peek_time()) == (1, True, 20)
    assert "fired" in repr(stale)
    queue.pop()
    queue.cancel(stale)
    assert (len(queue), bool(queue)) == (0, False)


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


def test_engine_run_until_predicate():
    engine = Engine()
    counter = {"n": 0}

    def tick():
        counter["n"] += 1
        engine.schedule(100, tick)

    engine.schedule(100, tick)
    engine.run(until=lambda: counter["n"] >= 5)
    assert counter["n"] == 5


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
