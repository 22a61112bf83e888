"""Unit tests for the simulated OS: threads, scheduling, semaphores."""

import pytest

from repro.errors import SchedulerError
from repro.sim.clock import usec
from repro.sim.engine import Engine
from repro.sim.hooks import subscribe
from repro.sim.metrics import CPU_REAL_WORK
from repro.simos.scheduler import OsProfile, SimOS
from repro.simos.sync import Mutex, Semaphore
from repro.simos.thread import Cpu, SemPost, SemWait, Sleep, YieldCpu


def make_os(cores=2, **kwargs):
    engine = Engine(seed=1)
    return engine, SimOS(engine, OsProfile(cores=cores, **kwargs))


@pytest.mark.parametrize(
    "field,value",
    [
        ("context_switch_ns", 3_000.5),
        ("context_switch_ns", -1),
        ("quantum_ns", 200_000.0),
        ("quantum_ns", 0),
        ("sem_syscall_ns", 800.7),
        ("sem_syscall_ns", -800),
        ("wakeup_ns", 2_000.25),
        ("wakeup_ns", -1),
    ],
)
def test_a_cost_that_is_not_a_whole_count_of_ns_is_refused(field, value):
    # a float cost would make the virtual clock a float, and one path
    # (schedule) truncates it while another (run_through) does not
    with pytest.raises(ValueError, match=field):
        OsProfile(cores=2, **{field: value})


def test_single_thread_runs_to_completion():
    engine, simos = make_os()
    trace = []

    def body():
        yield Cpu(usec(5), CPU_REAL_WORK)
        trace.append(engine.now)
        yield Cpu(usec(3), CPU_REAL_WORK)
        trace.append(engine.now)

    thread = simos.spawn(body())
    engine.run()
    assert thread.done
    assert trace == [usec(5), usec(8)]
    assert thread.account.total_ns == usec(8)


def test_threads_run_in_parallel_on_separate_cores():
    engine, simos = make_os(cores=2)
    finish = {}

    def body(name):
        yield Cpu(usec(10), CPU_REAL_WORK)
        finish[name] = engine.now

    simos.spawn(body("a"))
    simos.spawn(body("b"))
    engine.run()
    # both finish at t=10us: true parallelism across cores
    assert finish == {"a": usec(10), "b": usec(10)}


def test_oversubscription_serializes():
    engine, simos = make_os(cores=1)
    finish = {}

    def body(name):
        yield Cpu(usec(10), CPU_REAL_WORK)
        finish[name] = engine.now

    simos.spawn(body("a"))
    simos.spawn(body("b"))
    engine.run()
    assert finish["a"] == usec(10)
    # b waited for a, plus one context switch
    assert finish["b"] >= usec(20)


def test_context_switches_counted_and_charged():
    engine, simos = make_os(cores=1, context_switch_ns=usec(3))
    def body():
        yield Cpu(usec(10), CPU_REAL_WORK)

    simos.spawn(body())
    simos.spawn(body())
    engine.run()
    assert simos.context_switches.value >= 1
    # busy time includes the switch cost
    assert simos.total_busy_ns() == usec(10) * 2 + simos.context_switches.value * usec(3)


def test_sleep_releases_core():
    engine, simos = make_os(cores=1)
    trace = []

    def sleeper():
        yield Sleep(usec(50))
        trace.append(("sleeper", engine.now))

    def worker():
        yield Cpu(usec(10), CPU_REAL_WORK)
        trace.append(("worker", engine.now))

    simos.spawn(sleeper())
    simos.spawn(worker())
    engine.run()
    # worker used the core while the sleeper slept (10us of work plus
    # the context switch charged when it took over the vacated core)
    assert ("worker", usec(13)) in trace
    assert trace[-1][0] == "sleeper"


def test_semaphore_blocks_and_wakes():
    engine, simos = make_os(cores=2)
    sem = Semaphore(0)
    trace = []

    def waiter():
        yield SemWait(sem)
        trace.append(("woke", engine.now))

    def poster():
        yield Cpu(usec(20), CPU_REAL_WORK)
        yield SemPost(sem)

    simos.spawn(waiter())
    simos.spawn(poster())
    engine.run()
    assert len(trace) == 1
    # wake happens after the 20us of work plus syscall/wakeup costs
    assert trace[0][1] > usec(20)
    assert sem.block_count == 1


def test_semaphore_no_block_when_available():
    engine, simos = make_os()
    sem = Semaphore(1)

    def body():
        yield SemWait(sem)

    thread = simos.spawn(body())
    engine.run()
    assert thread.done
    assert sem.count == 0
    assert sem.block_count == 0


def test_semaphore_fifo_wakeup():
    engine, simos = make_os(cores=4)
    sem = Semaphore(0)
    order = []

    def waiter(name):
        yield SemWait(sem)
        order.append(name)

    def poster():
        yield Cpu(usec(10), CPU_REAL_WORK)
        for _ in range(3):
            yield SemPost(sem)
            yield Cpu(usec(10), CPU_REAL_WORK)

    # spawn waiters in order a, b, c
    for name in "abc":
        simos.spawn(waiter(name))
    simos.spawn(poster())
    engine.run()
    assert order == ["a", "b", "c"]


def test_mutex_mutual_exclusion():
    engine, simos = make_os(cores=2)
    mutex = Mutex()
    active = {"n": 0, "max": 0}

    def body():
        for _ in range(5):
            yield SemWait(mutex)
            active["n"] += 1
            active["max"] = max(active["max"], active["n"])
            yield Cpu(usec(3), CPU_REAL_WORK)
            active["n"] -= 1
            yield SemPost(mutex)

    simos.spawn(body())
    simos.spawn(body())
    engine.run()
    assert active["max"] == 1


def test_preemption_under_oversubscription():
    engine, simos = make_os(cores=1, quantum_ns=usec(50))

    def hog():
        for _ in range(100):
            yield Cpu(usec(10), CPU_REAL_WORK)

    simos.spawn(hog())
    simos.spawn(hog())
    engine.run()
    assert simos.preemptions.value > 5


def test_yield_cpu_round_robins():
    engine, simos = make_os(cores=1)
    order = []

    def body(name):
        for _ in range(3):
            yield Cpu(usec(1), CPU_REAL_WORK)
            order.append(name)
            yield YieldCpu()

    simos.spawn(body("a"))
    simos.spawn(body("b"))
    engine.run()
    assert order[:4] == ["a", "b", "a", "b"]


def test_cpu_accounting_by_group():
    engine, simos = make_os(cores=2)

    def body():
        yield Cpu(usec(4), CPU_REAL_WORK)

    simos.spawn(body(), group="g1")
    simos.spawn(body(), group="g2")
    engine.run()
    assert simos.cpu_account("g1").total_ns == usec(4)
    assert simos.cpu_account().total_ns == usec(8)


def test_cores_used_measurement():
    engine, simos = make_os(cores=4)

    def body():
        yield Cpu(usec(100), CPU_REAL_WORK)

    start_busy = simos.total_busy_ns()
    start_time = engine.now
    simos.spawn(body())
    simos.spawn(body())
    engine.run()
    assert simos.cores_used(start_busy, start_time) == pytest.approx(2.0)


def test_thread_exit_callback():
    engine, simos = make_os()
    done = []

    def body():
        yield Cpu(usec(1), CPU_REAL_WORK)

    thread = simos.spawn(body())
    thread.on_exit.append(lambda t: done.append(t.tid))
    engine.run()
    assert done == [thread.tid]


def test_thread_exception_propagates():
    engine, simos = make_os()

    def body():
        yield Cpu(usec(1), CPU_REAL_WORK)
        raise ValueError("boom")

    simos.spawn(body())
    with pytest.raises(ValueError, match="boom"):
        engine.run()


# ---------------------------------------------------------------------------
# stall guard: a drained event queue with blocked threads is a deadlock
# ---------------------------------------------------------------------------


def test_two_thread_semaphore_deadlock_raises_typed_error():
    engine, simos = make_os(cores=2)
    sem_a = Semaphore(0, name="a")
    sem_b = Semaphore(0, name="b")

    def first():
        yield SemWait(sem_a)
        yield SemPost(sem_b)

    def second():
        yield SemWait(sem_b)
        yield SemPost(sem_a)

    simos.spawn(first(), name="first")
    simos.spawn(second(), name="second")
    with pytest.raises(SchedulerError) as excinfo:
        engine.run()
    message = str(excinfo.value)
    assert "stalled" in message
    # the error names every blocked thread
    assert "first" in message and "second" in message


def test_stall_guard_silent_on_clean_completion():
    engine, simos = make_os(cores=1)

    def body():
        yield Cpu(usec(1), CPU_REAL_WORK)

    thread = simos.spawn(body())
    engine.run()
    assert thread.done  # no SchedulerError from the idle hook


def test_stall_guard_silent_when_some_thread_can_still_run():
    # one thread blocks forever, the other finishes: the queue drains
    # with a blocked thread remaining, but also a DONE one -- still a
    # deadlock of the blocked thread, and the guard must name only
    # all-blocked stalls... the blocked thread IS the only live one,
    # so this run stalls too.
    engine, simos = make_os(cores=2)
    sem = Semaphore(0)

    def blocked():
        yield SemWait(sem)

    def fine():
        yield Cpu(usec(1), CPU_REAL_WORK)

    simos.spawn(blocked(), name="blocked")
    simos.spawn(fine(), name="fine")
    with pytest.raises(SchedulerError, match="blocked"):
        engine.run()


# ---------------------------------------------------------------------------
# semaphore wakeup order: explicit FIFO contract
# ---------------------------------------------------------------------------


def test_waiters_deque_is_fifo_and_pop_waiter_bounds_checked():
    engine, simos = make_os(cores=4)
    sem = Semaphore(0)

    def waiter():
        yield SemWait(sem)

    def keepalive():
        # a pending wakeup event keeps the queue non-empty, so the
        # bounded run below stops on time rather than tripping the
        # stall guard over the deliberately-blocked waiters
        yield Sleep(usec(1_000))

    threads = [simos.spawn(waiter(), name="w%d" % i) for i in range(3)]
    simos.spawn(keepalive(), name="keepalive")
    engine.run_for(usec(50))
    # arrival order is preserved in the explicit FIFO
    assert [t.tid for t in sem.waiters] == [t.tid for t in threads]
    with pytest.raises(SchedulerError, match="out of range"):
        sem.pop_waiter(3)
    with pytest.raises(SchedulerError, match="out of range"):
        sem.pop_waiter(-1)
    # head pop is arrival order; indexed pop removes mid-queue
    assert sem.pop_waiter(0) is threads[0]
    assert sem.pop_waiter(1) is threads[2]
    assert sem.pop_waiter(0) is threads[1]


def test_default_wakeup_order_is_arrival_order_regression():
    # regression companion to test_semaphore_fifo_wakeup: interleaved
    # posts keep waking in arrival order even when later waiters have
    # re-blocked in between
    engine, simos = make_os(cores=4)
    sem = Semaphore(0)
    order = []

    def waiter(name):
        yield SemWait(sem)
        order.append(name)
        yield SemWait(sem)
        order.append(name)

    def poster():
        yield Cpu(usec(10), CPU_REAL_WORK)
        for _ in range(6):
            yield SemPost(sem)
            yield Cpu(usec(20), CPU_REAL_WORK)

    for name in "abc":
        simos.spawn(waiter(name))
    simos.spawn(poster())
    engine.run()
    assert order == ["a", "b", "c", "a", "b", "c"]


# ---------------------------------------------------------------------------
# scheduler edges: empty-queue yield, exact quantum boundary, state hook
# ---------------------------------------------------------------------------


def test_yield_cpu_with_empty_run_queue_keeps_running():
    engine, simos = make_os(cores=1)
    trace = []

    def body():
        yield Cpu(usec(1), CPU_REAL_WORK)
        trace.append(engine.now)
        yield YieldCpu()
        # nobody else runnable: the yield is free and we keep the core
        yield Cpu(usec(1), CPU_REAL_WORK)
        trace.append(engine.now)

    thread = simos.spawn(body())
    engine.run()
    assert thread.done
    # no context switch, no preemption, no delay from the empty yield
    assert trace == [usec(1), usec(2)]
    assert simos.preemptions.value == 0
    assert simos.context_switches.value == 0


def test_preemption_fires_exactly_at_quantum_boundary():
    # one burst of exactly the quantum with a rival queued: the
    # >=-boundary must preempt (quantum_used == quantum_ns)
    engine, simos = make_os(cores=1, quantum_ns=usec(50), context_switch_ns=0)

    def hog():
        yield Cpu(usec(50), CPU_REAL_WORK)
        yield Cpu(usec(1), CPU_REAL_WORK)

    def rival():
        yield Cpu(usec(1), CPU_REAL_WORK)

    simos.spawn(hog(), name="hog")
    simos.spawn(rival(), name="rival")
    engine.run()
    assert simos.preemptions.value == 1


def test_sub_quantum_burst_is_not_preempted():
    engine, simos = make_os(cores=1, quantum_ns=usec(50), context_switch_ns=0)

    def polite():
        yield Cpu(usec(49), CPU_REAL_WORK)
        yield YieldCpu()

    def rival():
        yield Cpu(usec(1), CPU_REAL_WORK)

    simos.spawn(polite(), name="polite")
    simos.spawn(rival(), name="rival")
    engine.run()
    assert simos.preemptions.value == 0


def test_on_thread_state_hook_ordering_across_transitions():
    engine, simos = make_os(cores=1, quantum_ns=usec(50), context_switch_ns=0)
    events = []

    subscribe(
        simos,
        "on_thread_state",
        lambda thread, state: events.append((thread.name, state)),
    )

    def hog():
        yield Cpu(usec(60), CPU_REAL_WORK)
        yield Cpu(usec(1), CPU_REAL_WORK)

    def rival():
        yield Cpu(usec(1), CPU_REAL_WORK)

    simos.spawn(hog(), name="hog")
    simos.spawn(rival(), name="rival")
    engine.run()

    from repro.simos.thread import T_DONE, T_RUNNABLE, T_RUNNING

    # spawn: hog dispatches straight to the core, rival queues
    assert events[0] == ("hog", T_RUNNABLE)
    assert events[1] == ("hog", T_RUNNING)
    assert events[2] == ("rival", T_RUNNABLE)
    # preemption at the quantum boundary: hog goes RUNNABLE *before*
    # the core is released, then the release dispatches rival RUNNING
    boundary = events.index(("hog", T_RUNNABLE), 3)
    assert events[boundary + 1] == ("rival", T_RUNNING)
    # every thread ends DONE, reported before its core re-dispatches
    assert events.count(("hog", T_DONE)) == 1
    assert events.count(("rival", T_DONE)) == 1
