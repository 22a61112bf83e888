"""The kernel fast path is exact: same run with and without it.

``SimOS.cpu`` (the rule behind a ``Cpu`` instruction and the call form
of a burst alike) advances the clock in place (``Engine.advance``)
when a CPU burst ends before anything else is due, and otherwise runs
what is due first from inside the call (``Engine.run_through``) and
goes on -- unless the burst ends past the horizon (an enclosing
run-through's slot, ``until_ns``, ``stop()``), when it goes through the
event heap.  ``SimOS.cpu_repeat`` takes a run of equal bursts in one
``Engine.advance`` call as far as each of them would have gone.
``SimOS.sem_post`` and ``SimOS.sem_wait`` run through their syscall the
same way, then post, take the unit or block.  Installing any
``on_dispatch`` hook forces the heap, so every test here runs one
program twice -- plain, and forced slow by a no-op hook -- and asserts
that nothing a simulation can observe differs, and that the two runs
account for the same number of kernel steps: ``slow.dispatched ==
fast.dispatched + fast.inlined``.  The generated programs run once more
with every call spelled as an instruction (``Cpu``, ``SemWait``,
``SemPost``), which must be the same run step for step.

``Engine.advance`` caches how far the clock could go on moving in place
(``Engine.limit_ns``), and ``SimOS.cpu`` books a burst that ends within
it in the same call.  Programs mixing bursts, pushes, run-throughs and
repeats run plain, on a kernel with no cached limit, and forced slow,
and must agree on every clock reading, account and core, with the same
``dispatched`` and ``inlined`` as the uncached run.
"""

import random

import pytest
from hypothesis import Phase, find, given, settings, strategies as st

from repro.api import PATreeSession
from repro.core.engine import PaTreeEngine
from repro.core.node import Node
from repro.core.ops import (
    ReadEff, WriteEff, delete_op, insert_op, range_op, search_op, sync_op,
)
from repro.core.source import ClosedLoopSource
from repro.core.tree import PaTree
from repro.errors import SchedulerError, SimulationError
from repro.nvme.command import NvmeCommand, OP_READ, OP_WRITE
from repro.nvme.device import NvmeDevice, fast_test_profile
from repro.nvme.driver import NvmeDriver
from repro.sched.naive import NaiveScheduling
from repro.sim.engine import Engine
from repro.sim.hooks import subscribe, unsubscribe
from repro.sim.metrics import CPU_CATEGORIES
from repro.simos.scheduler import OsProfile, SimOS
from repro.simos.sync import Semaphore
from repro.simos.thread import Cpu, SemPost, SemWait, Sleep, YieldCpu

# few distinct values, so bursts, sleeps and timers often end at the
# same instant: ties are where an inexact fast path would reorder
_NS = st.sampled_from([0, 1, 50, 100, 100, 250, 800, 3_000, 20_000])

# a burst as a Cpu instruction or as a SimOS.cpu call
_CPU = st.tuples(
    st.sampled_from(["cpu", "call"]), _NS, st.sampled_from(CPU_CATEGORIES)
)

# a run of equal bursts asked for in one SimOS.cpu_repeat call; what the
# kernel does not take of it the thread issues one by one, as
# instructions ("repeat") or as calls ("call-repeat")
_REPEAT = st.tuples(
    st.sampled_from(["repeat", "call-repeat"]), _NS.filter(bool),
    st.sampled_from(CPU_CATEGORIES), st.sampled_from([1, 2, 7, 40, 400]),
)

_INSTR = st.one_of(
    _CPU,
    _CPU,  # twice: bursts are what the fast path is about
    _REPEAT,
    st.tuples(st.just("sleep"), _NS),
    st.tuples(st.just("yield")),
    # a semaphore syscall as an instruction or as a SimOS call
    st.tuples(st.sampled_from(["wait", "wait-call"]), st.integers(0, 2)),
    st.tuples(st.sampled_from(["post", "post-call"]), st.integers(0, 2)),
    # a thread body that spawns another thread and goes on at the same
    # instant: the child's first burst or syscall must not move the
    # parent's clock, and the parent's next call must charge the parent
    st.tuples(st.just("spawn"), st.lists(
        st.one_of(
            st.tuples(
                st.sampled_from(["cpu", "call"]), _NS,
                st.just(CPU_CATEGORIES[0]),
            ),
            st.tuples(
                st.sampled_from(["wait-call", "post-call"]),
                st.integers(0, 2),
            ),
        ),
        min_size=1, max_size=3,
    )),
)

# SimOS.run_until_done over the first few threads, with and without a
# time bound
_DONE_STOP = st.tuples(
    st.just("done"), st.integers(1, 4),
    st.one_of(st.none(), st.integers(0, 60_000)),
)

_SHAPE = {
    "cores": st.integers(1, 8),
    "quantum_ns": st.sampled_from([200, 1_000, 200_000]),
    "context_switch_ns": st.sampled_from([0, 300, 3_000]),
    "sem_initial": st.lists(st.integers(0, 3), min_size=3, max_size=3),
    "threads": st.lists(
        st.lists(_INSTR, min_size=1, max_size=12), min_size=1, max_size=12
    ),
    # foreign timers on the same engine: (delay, the one step of a
    # thread the timer spawns, or None); a spawn from an event callback
    # must not move the clock either
    "timers": st.lists(st.tuples(_NS, st.sampled_from([
        None, ("call", 100, CPU_CATEGORIES[0]), ("wait-call", 0),
        ("post-call", 0),
    ])), max_size=6),
}

# a timer that calls stop(), pushed after everything else
_STOP_AT = st.tuples(st.just("stop_at"), st.integers(0, 60_000))

_PROGRAM = st.fixed_dictionaries(dict(_SHAPE, stop=st.one_of(
    st.none(),
    st.tuples(st.just("until_ns"), st.integers(0, 60_000)),
    _STOP_AT,
    _DONE_STOP,
)))


class _Machine:
    """One run of a generated program and everything it could observe."""

    def __init__(self, program, slow, instructions=False):
        # instructions: every burst, calls and repeats included, yielded
        # as a Cpu instruction instead, and every semaphore call as a
        # SemWait / SemPost
        self.instructions = instructions
        self.engine = Engine(seed=1)
        self.simos = SimOS(self.engine, OsProfile(
            cores=program["cores"],
            quantum_ns=program["quantum_ns"],
            context_switch_ns=program["context_switch_ns"],
        ))
        self.sems = [Semaphore(count) for count in program["sem_initial"]]
        self.log = []  # (who, step, virtual time) at every resumption
        self.exits = []
        self.top = []  # the program's own threads, in program order
        self.taken = 0  # bursts the kernel took out of repeat instructions
        # run-throughs in progress, now and at most
        self.depth = self.max_depth = 0
        run_through = self.engine.run_through

        def tracked_run_through(*args):
            self.depth += 1
            self.max_depth = max(self.max_depth, self.depth)
            try:
                return run_through(*args)
            finally:
                self.depth -= 1

        self.engine.run_through = tracked_run_through
        if slow:
            subscribe(self.engine, "on_dispatch", lambda event: None)
        for index, instrs in enumerate(program["threads"]):
            self.top.append(self._spawn("t%d" % index, instrs))
        for index, (delay_ns, child) in enumerate(program["timers"]):
            self.engine.schedule(
                delay_ns, lambda i=index, c=child: self._timer(i, c)
            )
        self.outcome = self._run(program["stop"])

    def _spawn(self, name, instrs):
        thread = self.simos.spawn(self._body(name, instrs), name=name)
        thread.on_exit.append(
            lambda t: self.exits.append((t.name, self.engine.now))
        )
        return thread

    def _body(self, name, instrs):
        simos = self.simos
        cpu = simos.cpu
        for step, instr in enumerate(instrs):
            kind = instr[0]
            if self.instructions and kind in ("call", "repeat", "call-repeat"):
                for _ in range(1 if kind == "call" else instr[3]):
                    yield Cpu(instr[1], instr[2])
            elif kind == "cpu":
                yield Cpu(instr[1], instr[2])
            elif kind == "call":
                cpu(instr[1], instr[2]) or (yield)
            elif kind in ("repeat", "call-repeat"):
                taken = self.simos.cpu_repeat(instr[1], instr[2], instr[3])
                self.taken += taken
                for _ in range(instr[3] - taken):
                    if kind == "repeat":
                        yield Cpu(instr[1], instr[2])
                    else:
                        cpu(instr[1], instr[2]) or (yield)
            elif kind == "sleep":
                yield Sleep(instr[1])
            elif kind == "yield":
                yield YieldCpu()
            elif kind == "wait" or (self.instructions and kind == "wait-call"):
                yield SemWait(self.sems[instr[1]])
            elif kind == "post" or (self.instructions and kind == "post-call"):
                yield SemPost(self.sems[instr[1]])
            elif kind == "wait-call":
                simos.sem_wait(self.sems[instr[1]]) or (yield)
            elif kind == "post-call":
                simos.sem_post(self.sems[instr[1]]) or (yield)
            else:
                self._spawn("%s.%d" % (name, step), instr[1])
            self.log.append((name, step, self.engine.now))

    def _timer(self, index, child):
        self.log.append(("timer", index, self.engine.now))
        if child is not None:
            self._spawn("timer%d" % index, [child])
            self.log.append(("timer-after-spawn", index, self.engine.now))

    def _run(self, stop):
        kind = stop[0] if stop is not None else None
        if kind == "stop_at":
            self.engine.schedule(stop[1], self.engine.stop)
        try:
            if kind == "done":
                self.simos.run_until_done(self.top[:stop[1]], stop[2])
            else:
                self.engine.run(stop[1] if kind == "until_ns" else None)
        except SchedulerError as exc:  # a generated deadlock
            return str(exc)
        return "ok"

    def observed(self):
        simos = self.simos
        return {
            "outcome": self.outcome,
            "now": self.engine.now,
            "log": self.log,
            "exits": self.exits,
            "threads": [
                (t.name, t.state, t.account.by_category, t.account.total_ns)
                for t in simos.threads
            ],
            "busy_ns": [core.busy_ns for core in simos.cores],
            "context_switches": simos.context_switches.value,
            "preemptions": simos.preemptions.value,
            "sem_blocks": simos.sem_blocks.value,
            "sems": [(s.count, s.wait_count, s.block_count) for s in self.sems],
            "pending": len(self.engine.events),
        }


def _assert_equivalent(fast, slow):
    assert fast.observed() == slow.observed()
    assert slow.engine.inlined == 0 and slow.taken == 0
    assert (
        slow.engine.dispatched
        == fast.engine.dispatched + fast.engine.inlined
    )


def _assert_same_run(latched, reference):
    assert latched.observed() == reference.observed()
    assert (latched.engine.dispatched, latched.engine.inlined) == (
        reference.engine.dispatched, reference.engine.inlined
    )


@settings(max_examples=200, deadline=None)
@given(_PROGRAM)
def test_random_programs_run_the_same_with_and_without_the_fast_path(program):
    fast = _Machine(program, slow=False)
    _assert_equivalent(fast, _Machine(program, slow=True))
    # the call form is the instruction form, burst for burst
    as_instructions = _Machine(program, slow=False, instructions=True)
    _assert_same_run(as_instructions, fast)
    _assert_equivalent(
        as_instructions, _Machine(program, slow=True, instructions=True)
    )


def _program(threads, cores=1, timers=(), stop=None):
    return {
        "cores": cores, "quantum_ns": 200_000, "context_switch_ns": 3_000,
        "sem_initial": [0, 0, 0], "threads": threads,
        "timers": list(timers), "stop": stop,
    }


def _spinner(bursts, ns=100):
    return [("cpu", ns, CPU_CATEGORIES[0])] * bursts


def test_a_lone_thread_never_touches_the_heap():
    fast = _Machine(_program([_spinner(50)]), slow=False)
    # spawn() ran outside run(), so the first burst was scheduled
    assert (fast.engine.dispatched, fast.engine.inlined) == (1, 49)
    _assert_equivalent(fast, _Machine(_program([_spinner(50)]), slow=True))


def test_an_event_at_exactly_the_burst_end_runs_first_from_inside_the_call():
    # the timer is due at 200, when the second burst ends: it was pushed
    # first, so it fires first -- the burst's call runs it, then goes on
    program = _program([_spinner(4)], timers=[(200, None)])
    fast = _Machine(program, slow=False)
    assert fast.log.index(("timer", 0, 200)) < fast.log.index(("t0", 1, 200))
    # burst 1 is spawn's; burst 2 runs the timer through, 3 and 4 are
    # plain advances
    assert (fast.engine.dispatched, fast.engine.inlined) == (2, 3)
    assert fast.max_depth == 1
    _assert_equivalent(fast, _Machine(program, slow=True))


_SYSCALL_NS = OsProfile().sem_syscall_ns


@pytest.mark.parametrize("timer_ns", [100 + _SYSCALL_NS, 101 + _SYSCALL_NS])
def test_an_uncontended_wait_ending_at_a_pending_event_runs_it_first(
    timer_ns,
):
    # the burst spawn() scheduled ends at 100; the wait's syscall then
    # ends exactly at the timer (a tie: the timer was pushed first and
    # fires first, from inside the call) or just before it
    program = _program(
        [_spinner(1) + [("wait-call", 0)]], timers=[(timer_ns, None)]
    )
    program["sem_initial"] = [1, 0, 0]
    fast = _Machine(program, slow=False)
    assert (fast.engine.dispatched, fast.engine.inlined) == (2, 1)
    timer_first = fast.log.index(("timer", 0, timer_ns)) < fast.log.index(
        ("t0", 1, 100 + _SYSCALL_NS)
    )
    assert timer_first == (timer_ns == 100 + _SYSCALL_NS)
    assert fast.observed()["sems"][0] == (0, 1, 0)
    _assert_equivalent(fast, _Machine(program, slow=True))


def _wait_then_post(cores=2):
    # t0 waits at 100 on a zero count with nothing due before t1's post
    # at 20 000
    return _program(
        [
            _spinner(1) + [("wait-call", 0)],
            _spinner(1, 20_000) + [("post-call", 0)],
        ],
        cores=cores,
    )


def test_a_contended_wait_blocks_in_place_and_hands_its_core_on():
    # one core: t0's wait syscall goes by in place and blocks it there;
    # its core goes to the queued t1 through a context switch, and t1's
    # burst and post go by in place too
    program = _wait_then_post(cores=1)
    fast = _Machine(program, slow=False)
    switch_ns = program["context_switch_ns"]
    assert fast.engine.inlined == 3
    assert ("t1", 0, 100 + _SYSCALL_NS + switch_ns + 20_000) in fast.log
    assert fast.observed()["sems"][0] == (0, 1, 1)  # (count, waits, blocks)
    assert fast.simos.context_switches.value == 2
    _assert_equivalent(fast, _Machine(program, slow=True))


def test_a_post_that_wakes_in_place_schedules_the_wakeup_at_the_same_instant():
    program = _wait_then_post()
    program["context_switch_ns"] = 0
    fast = _Machine(program, slow=False)
    wakeup_ns = fast.simos.profile.wakeup_ns
    # the post's syscall ends at 20 800 and t0 runs wakeup_ns later; both
    # syscalls went by in place
    assert fast.engine.inlined == 2
    assert ("t1", 1, 20_000 + _SYSCALL_NS) in fast.log
    assert ("t0", 1, 20_000 + _SYSCALL_NS + wakeup_ns) in fast.log
    assert fast.engine.now == 20_000 + _SYSCALL_NS + wakeup_ns
    _assert_equivalent(fast, _Machine(program, slow=True))


_REAL = CPU_CATEGORIES[0]


@pytest.mark.parametrize("nested_ns,in_place", [(900, False), (899, True)])
def test_a_nested_burst_ending_at_the_enclosing_slot_takes_the_heap(
    nested_ns, in_place,
):
    # t0's burst runs 100..1 100 and t1's first one ends at 200, inside
    # it; t1's next burst (the timer at 500 in its way) ends exactly at
    # t0's reserved slot, which only the heap can order, or just before
    program = _program(
        [
            _spinner(1) + [("call", 1_000, _REAL)],
            _spinner(1, 200) + [("call", nested_ns, _REAL)],
        ],
        cores=2, timers=[(500, None)],
    )
    fast = _Machine(program, slow=False)
    assert fast.max_depth == 2
    assert fast.engine.inlined == (2 if in_place else 1)
    if not in_place:  # a tie at 1 100: t0's slot was taken first
        assert fast.log.index(("t0", 1, 1_100)) < fast.log.index(
            ("t1", 1, 1_100)
        )
    _assert_equivalent(fast, _Machine(program, slow=True))


@pytest.mark.parametrize("stop", [("done", 1, None), ("stop_at", 200)],
                         ids=["stop", "timer"])
def test_a_run_ended_inside_a_run_through_leaves_its_entry_in_the_slot(
    stop,
):
    # t1's burst runs 100..1 100; t0 exits at 200, inside it, which ends
    # the run -- by run_until_done or by a timer at 200 pushed after t0's
    # step, both through stop().  The continuation waits in its reserved
    # slot, behind the timer at 1 100 that was pushed before it, and a
    # second run() goes on from there
    program = _program(
        [_spinner(1, 200), _spinner(1) + [("call", 1_000, _REAL)] * 2],
        cores=2, timers=[(1_100, None)], stop=stop,
    )
    fast, slow = _Machine(program, slow=False), _Machine(program, slow=True)
    assert (fast.engine.now, len(fast.engine.events)) == (200, 2)
    assert fast.max_depth == 1
    _assert_equivalent(fast, slow)
    for machine in (fast, slow):
        machine.engine.run()
    assert fast.engine.now == 2_100
    assert fast.log.index(("timer", 0, 1_100)) < fast.log.index(
        ("t1", 1, 1_100)
    )
    _assert_equivalent(fast, slow)


@pytest.mark.parametrize("spelling", ["call", "instruction"])
@pytest.mark.parametrize("pick", [None, "self"])
def test_preemption_is_decided_at_the_end_of_a_burst(pick, spelling):
    # one core, three threads: every burst is taken with others queued.
    # The policy must be asked the same questions at the same instants
    # either way; "self" hands a preempted thread its core straight back.
    # The run stops at until_ns once, so that a burst ends past it while
    # the thread holds its core
    def run(slow):
        engine = Engine()
        simos = SimOS(engine, OsProfile(
            cores=1, quantum_ns=250, context_switch_ns=30,
        ))
        decisions, log = [], []

        def policy(thread, used_ns, quantum_ns):
            decisions.append((thread.name, used_ns, engine.now))
            return used_ns >= quantum_ns

        simos.preempt_policy = policy
        if pick == "self":
            simos.pick_runnable = lambda queue: len(queue) - 1

        def body(name):
            for step in range(6):
                if spelling == "call":
                    simos.cpu(100, _REAL) or (yield)
                else:
                    yield Cpu(100, _REAL)
                log.append((name, step, engine.now))

        threads = [simos.spawn(body(name), name=name) for name in "abc"]
        for delay_ns in (150, 420, 777):
            engine.schedule(delay_ns, log.append, ("timer", delay_ns))
        if slow:
            subscribe(engine, "on_dispatch", lambda event: None)
        engine.run(until_ns=1_000)
        log.append(("stopped", len(engine.events)))
        engine.run()
        return engine, simos, {
            "decisions": decisions, "log": log, "now": engine.now,
            "preemptions": simos.preemptions.value,
            "context_switches": simos.context_switches.value,
            "threads": [(t.state, t.account.total_ns) for t in threads],
        }

    fast_engine, fast_simos, fast = run(slow=False)
    slow_engine, _, slow = run(slow=True)
    assert fast == slow
    assert fast["preemptions"] > 0 and fast_engine.inlined > 0
    assert slow_engine.dispatched == (
        fast_engine.dispatched + fast_engine.inlined
    )


def test_an_exception_from_a_nested_event_reaches_the_caller_of_run():
    class Boom(Exception):
        pass

    def run(slow):
        engine = Engine()
        simos = SimOS(engine, OsProfile(cores=1))
        boom = Boom("from a timer")

        def explode():
            raise boom

        def body():
            simos.cpu(100, _REAL) or (yield)
            simos.cpu(1_000, _REAL) or (yield)

        thread = simos.spawn(body())
        engine.schedule(500, explode)
        if slow:
            subscribe(engine, "on_dispatch", lambda event: None)
        with pytest.raises(Boom) as caught:
            engine.run()
        assert caught.value is boom
        assert engine.now == 500
        assert engine.advance(1) == 0  # the kernel is reusable
        return engine, thread

    fast_engine, fast_thread = run(slow=False)
    slow_engine, slow_thread = run(slow=True)
    # the exception went up through the interrupted body, which it
    # finalised, and the continuation was never pushed; the heap run
    # leaves the body suspended with its continuation pending
    assert fast_thread.gen.gi_frame is None
    assert len(fast_engine.events) == 0
    assert slow_thread.gen.gi_frame is not None
    assert len(slow_engine.events) == 1


def test_the_generated_programs_nest_run_throughs():
    # a call made from inside a run-through made from inside another
    # one: the property above is exercised where nesting can go wrong
    program = find(
        _PROGRAM, lambda program: _Machine(program, slow=False).max_depth >= 3,
        settings=settings(
            max_examples=500, database=None, deadline=None,
            derandomize=True, phases=[Phase.generate],
        ),
    )
    assert program["cores"] >= 2


def _staircase(threads, then=()):
    # thread i resumes at i + 1 and bursts to 1 001 - i: each burst ends
    # just short of the slot of the one it interrupts, so every thread's
    # burst runs the next one's through, as deep as there are threads
    return _program(
        [
            _spinner(1, index + 1) + [("call", 1_000 - 2 * index, _REAL)]
            + [("call", ns, _REAL) for ns in then]
            for index in range(threads)
        ],
        cores=threads,
    )


def test_four_threads_on_four_cores_nest_four_deep():
    program = _staircase(4, then=(37, 800, 1))
    fast = _Machine(program, slow=False)
    assert fast.max_depth == 4
    _assert_equivalent(fast, _Machine(program, slow=True))


def test_sixty_four_busy_threads_nest_no_deeper_than_the_cores():
    # every level is a distinct thread holding its core in the middle of
    # a call, so the depth is bounded by the core count: no RecursionError
    program = _staircase(64, then=(37, 800, 1, 250, 3_000, 100))
    fast = _Machine(program, slow=False)
    assert fast.max_depth == 64 == program["cores"]
    assert all(thread.done for thread in fast.top)
    _assert_equivalent(fast, _Machine(program, slow=True))


@pytest.mark.parametrize("call", ["sem_wait", "sem_post"])
def test_a_sem_call_inside_spawn_does_not_move_the_clock(call):
    engine = Engine()
    simos = SimOS(engine, OsProfile(cores=2))
    sem = Semaphore(1)
    seen = []

    def child():
        went_by = getattr(simos, call)(sem)
        seen.append(("child", went_by, engine.now))
        went_by or (yield)
        seen.append(("child", engine.now))

    def parent():
        simos.cpu(100) or (yield)
        simos.spawn(child())
        seen.append(("parent", engine.now))
        simos.cpu(100) or (yield)
        seen.append(("parent", engine.now))

    simos.spawn(parent())
    engine.run()
    assert seen == [
        ("child", False, 100), ("parent", 100), ("parent", 200),
        ("child", 100 + _SYSCALL_NS),
    ]
    assert sem.count == (0 if call == "sem_wait" else 2)


def test_until_ns_leaves_the_clock_exactly_there():
    program = _program([_spinner(100)], stop=("until_ns", 1_234))
    fast = _Machine(program, slow=False)
    assert fast.engine.now == 1_234
    assert fast.log[-1] == ("t0", 11, 1_200)
    assert fast.engine.inlined == 11
    _assert_equivalent(fast, _Machine(program, slow=True))


@pytest.mark.parametrize("context_switch_ns", [0, 3_000])
def test_the_thread_dispatched_by_the_last_exit_does_not_advance_in_place(
    context_switch_ns,
):
    # one core: t1 gets it from inside t0's _finish, after t0 turned
    # done.  A run that waits for t0 is over at that line, so t1's
    # first burst goes to the heap
    program = _program(
        [_spinner(3), _spinner(5)], stop=("done", 1, None),
    )
    program["context_switch_ns"] = context_switch_ns
    fast = _Machine(program, slow=False)
    t0, t1 = fast.top
    assert (t0.done, t1.done) == (True, False)
    assert [entry for entry in fast.log if entry[0] == "t1"] == []
    assert len(fast.engine.events) == 1  # t1's pending step
    _assert_equivalent(fast, _Machine(program, slow=True))
    # and the machine goes on from there
    fast.engine.run()
    assert t1.done


def test_run_until_done_with_nothing_to_wait_for_dispatches_nothing():
    machine = _Machine(_program([_spinner(2)]), slow=False)
    assert machine.top[0].done
    machine.engine.schedule(100, machine.log.append, "later")
    before = (machine.engine.now, machine.engine.dispatched, machine.engine.inlined)
    machine.simos.run_until_done(machine.top, until_ns=10**9)
    machine.simos.run_until_done([])
    assert (
        machine.engine.now, machine.engine.dispatched, machine.engine.inlined
    ) == before
    assert len(machine.engine.events) == 1


def test_run_until_done_stops_at_until_ns_when_the_threads_outlast_it():
    program = _program([_spinner(100)], stop=("done", 1, 1_234))
    fast = _Machine(program, slow=False)
    assert (fast.engine.now, fast.top[0].done) == (1_234, False)
    assert fast.log[-1] == ("t0", 11, 1_200)
    _assert_equivalent(fast, _Machine(program, slow=True))
    # nobody is awaited any more: a plain run() is not cut short
    fast.engine.run()
    assert (fast.engine.now, fast.top[0].done) == (10_000, True)


def test_stop_turns_the_fast_path_off_for_the_rest_of_the_event():
    engine = Engine()
    engine.schedule(1_000, lambda: None)  # far enough not to be the reason
    seen = []

    def callback():
        seen.append((engine.advance(5), engine.advance(1, 3)))
        engine.stop()
        seen.append((engine.advance(5), engine.advance(1, 3)))

    engine.schedule(1, callback)
    engine.run()
    assert seen == [(1, 3), (0, 0)]
    assert (engine.now, engine.inlined, len(engine.events)) == (9, 4, 1)


def _repeater(count, ns=100):
    # spawn() steps the first instruction outside run(), where nothing
    # advances in place: a burst of its own goes first
    return _spinner(1, ns) + [("repeat", ns, CPU_CATEGORIES[0], count)]


def test_a_repeat_is_taken_whole_when_nothing_else_is_due():
    fast = _Machine(_program([_repeater(50)]), slow=False)
    assert (fast.engine.dispatched, fast.engine.inlined) == (1, 50)
    assert (fast.taken, fast.engine.now) == (50, 5_100)
    _assert_equivalent(fast, _Machine(_program([_repeater(50)]), slow=True))


def test_a_repeat_stops_before_the_burst_that_ties_with_an_event():
    # from 100 the bursts end at 200, 300, 400 and -- with the timer,
    # which was pushed first and so fires first -- at 500
    program = _program([_repeater(10)], timers=[(500, None)])
    fast = _Machine(program, slow=False)
    assert fast.taken == 3
    assert fast.log.index(("timer", 0, 500)) < fast.log.index(("t0", 1, 1_100))
    _assert_equivalent(fast, _Machine(program, slow=True))


def test_a_repeat_stops_at_until_ns():
    program = _program([_repeater(100)], stop=("until_ns", 1_234))
    fast = _Machine(program, slow=False)
    assert (fast.taken, fast.engine.now) == (11, 1_234)
    _assert_equivalent(fast, _Machine(program, slow=True))


def test_a_repeat_is_not_taken_while_another_thread_waits_for_the_core():
    program = _program([_repeater(5), _spinner(3)], cores=1)
    fast = _Machine(program, slow=False)
    # t1 queues behind t0 until t0 is done: every burst of t0 goes
    # through the heap, where a preemption would be decided
    assert fast.taken == 0
    _assert_equivalent(fast, _Machine(program, slow=True))


def test_a_repeat_with_an_empty_heap_stops_inside_the_event_budget():
    # 999 events are left when the repeat is asked for, and each burst
    # takes at least a nanosecond of them: 999 ns hold 9 bursts of 100.
    # The rest go one by one, and the valve trips at the same count
    engine = Engine(max_events=1_000)
    simos = SimOS(engine, OsProfile(cores=1))
    taken = []

    def spin():
        yield Cpu(100)
        taken.append(simos.cpu_repeat(100, CPU_CATEGORIES[0], 10**12))
        while True:
            simos.cpu(100) or (yield)

    simos.spawn(spin())
    with pytest.raises(SimulationError, match="event budget exceeded"):
        engine.run()
    assert taken == [9]
    assert (engine.dispatched, engine.inlined) == (1, 1_000)
    assert engine.now == 100 + 999 * 100
    assert engine.advance(100, 5) == 0


def test_spawn_outside_run_never_moves_the_clock():
    engine = Engine()
    simos = SimOS(engine, OsProfile(cores=2))

    def body():
        yield Cpu(500)
        yield Cpu(500)

    simos.spawn(body())
    simos.spawn(body())
    assert (engine.now, engine.inlined, len(engine.events)) == (0, 0, 2)
    assert engine.advance(1) == 0
    engine.run()
    assert engine.now == 1_000


def test_spawn_inside_run_does_not_move_the_spawners_clock():
    engine = Engine()
    simos = SimOS(engine, OsProfile(cores=2))
    seen = []

    def child():
        yield Cpu(700)
        seen.append(("child", engine.now))

    def parent():
        yield Cpu(100)
        simos.spawn(child())
        seen.append(("parent", engine.now))
        yield Cpu(100)
        seen.append(("parent", engine.now))

    simos.spawn(parent())
    engine.run()
    assert seen == [("parent", 100), ("parent", 200), ("child", 800)]


def test_a_lone_spinner_with_an_empty_heap_still_hits_max_events():
    engine = Engine(max_events=1_000)
    simos = SimOS(engine, OsProfile(cores=1))

    def spin():
        while True:
            yield Cpu(100)

    simos.spawn(spin())
    with pytest.raises(SimulationError, match="event budget exceeded"):
        engine.run()
    assert engine.dispatched + engine.inlined == 1_001
    assert engine.inlined >= 999
    # the failed run left the kernel reusable and the fast path off
    assert engine.advance(1) == 0


@pytest.mark.parametrize("hook", ["on_dispatch"])
def test_a_kernel_hook_turns_the_fast_path_off(hook):
    engine = Engine()
    simos = SimOS(engine, OsProfile(cores=1))
    calls = []
    subscribe(engine, hook, calls.append)

    taken = []

    def body():
        for _ in range(20):
            yield Cpu(100)
        taken.append(simos.cpu_repeat(100, CPU_CATEGORIES[0], 5))

    simos.spawn(body())
    engine.run()
    assert (engine.inlined, engine.dispatched, engine.now) == (0, 20, 2_000)
    assert len(calls) == 20
    assert taken == [0]


def test_after_a_spawn_the_parents_call_charges_the_parent():
    # the child runs inside spawn() on the second core: its zero burst
    # goes by in place, its first real one waits in the heap (spawn
    # goes on at this instant); then the parent's call is the parent's
    engine = Engine()
    simos = SimOS(engine, OsProfile(cores=2))
    real, sync = CPU_CATEGORIES[0], CPU_CATEGORIES[1]
    seen = []

    def child():
        cpu = simos.cpu
        seen.append(cpu(0, sync))
        cpu(700, sync) or (yield)
        seen.append(("child", engine.now))

    def parent():
        cpu = simos.cpu
        cpu(100, real) or (yield)
        simos.spawn(child(), name="child")
        cpu(300, real) or (yield)
        seen.append(("parent", engine.now))

    parent_thread = simos.spawn(parent(), name="parent")
    engine.run()
    child_thread = simos.threads[1]
    assert seen == [True, ("parent", 400), ("child", 800)]
    assert parent_thread.account.by_category[real] == 400
    assert parent_thread.account.total_ns == 400
    assert child_thread.account.by_category[sync] == 700
    assert child_thread.account.total_ns == 700
    assert sorted(core.busy_ns for core in simos.cores) == [400, 700]


def test_a_zero_call_charges_nothing_and_goes_on():
    engine = Engine()
    simos = SimOS(engine, OsProfile(cores=1))
    seen = []

    def body():
        seen.append(simos.cpu(0, CPU_CATEGORIES[0]))
        yield Cpu(0)
        seen.append(engine.now)

    thread = simos.spawn(body())
    engine.run()
    assert seen == [True, 0]
    assert (thread.account.total_ns, simos.cores[0].busy_ns) == (0, 0)
    assert (engine.dispatched, engine.inlined, thread.done) == (0, 0, True)


def test_a_negative_call_raises_as_the_instruction_does():
    simos = SimOS(Engine(), OsProfile(cores=1))
    with pytest.raises(ValueError) as instruction:
        Cpu(-1)
    with pytest.raises(ValueError) as call:
        simos.cpu(-1, CPU_CATEGORIES[0])
    assert str(call.value) == str(instruction.value)


@pytest.mark.parametrize("step_ns", [0, -5])
def test_a_repeat_of_a_non_positive_step_raises(step_ns):
    simos = SimOS(Engine(), OsProfile(cores=1))
    with pytest.raises(ValueError, match="must be positive"):
        simos.cpu_repeat(step_ns, CPU_CATEGORIES[0], 3)


def test_max_events_from_a_call_finalises_the_thread_body():
    # the valve raises inside the thread's frame, not in _step
    engine = Engine(max_events=1_000)
    simos = SimOS(engine, OsProfile(cores=1))

    def spin():
        cpu = simos.cpu
        while True:
            cpu(100) or (yield)

    thread = simos.spawn(spin())
    with pytest.raises(SimulationError, match="event budget exceeded"):
        engine.run()
    assert engine.dispatched + engine.inlined == 1_001
    assert thread.gen.gi_frame is None


# ----------------------------------------------------------------------
# the in-place limit: Engine.limit_ns, spent by SimOS.cpu
# ----------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    step_ns=st.integers(1, 300), count=st.integers(1, 50),
    head_ns=st.one_of(st.none(), st.integers(1, 5_000)),
    until_ns=st.one_of(st.none(), st.integers(0, 5_000)),
)
def test_n_steps_in_one_advance_are_n_single_steps(
    step_ns, count, head_ns, until_ns,
):
    def steps(at_once):
        engine = Engine()
        seen = []

        def callback():
            if at_once:
                taken = engine.advance(step_ns, count)
            else:
                taken = 0
                while taken < count and engine.advance(step_ns):
                    taken += 1
            seen.append((taken, engine.now, engine.inlined))

        engine.schedule(0, callback)
        if head_ns is not None:
            engine.schedule(head_ns, lambda: None)
        engine.run(until_ns)
        return seen[0]

    taken, now, inlined = steps(at_once=True)
    assert steps(at_once=False) == (taken, now, inlined)
    assert now == taken * step_ns == inlined * step_ns
    # a tie with the heap head goes through the heap, the horizon caps
    # the steps, and no step fits after the last one taken
    assert head_ns is None or now < head_ns
    assert until_ns is None or now <= until_ns
    after_ns = now + step_ns
    assert taken == count or (
        head_ns is not None and after_ns >= head_ns
    ) or (until_ns is not None and after_ns > until_ns)


class _UncachedEngine(Engine):
    """The kernel with no cached in-place limit: every burst asks
    ``advance``, which is what the cache must agree with."""

    limit_ns = property(lambda self: -1, lambda self, value: None)


_LIMIT_BURST = st.tuples(
    st.just("burst"),
    # a float, a zero and an unknown category go by SimOS.cpu's rules
    st.one_of(_NS, _NS, _NS, _NS, st.just(150.5)),
    st.sampled_from(CPU_CATEGORIES * 2 + ("no-such-category",)),
)

# runs of bursts, and between them what else a thread body does: read
# the clock, push an event (relative or absolute), sleep, take a run of
# equal bursts in one call, post a semaphore (a run-through), or submit
# a read or a write to the device (whose posts are passive entries
# unless a hook is bound), after which every burst ends in a probe
# until the thread has reaped what it submitted
_LIMIT_STEPS = st.lists(
    st.tuples(
        st.lists(_LIMIT_BURST, min_size=1, max_size=8),
        st.one_of(
            st.tuples(st.just("observe")),
            st.tuples(st.sampled_from(["push", "push_at"]), _NS),
            st.tuples(st.just("sleep"), _NS),
            st.tuples(
                st.just("repeat"), _NS.filter(bool),
                st.sampled_from(CPU_CATEGORIES), st.sampled_from([1, 3, 40]),
            ),
            st.tuples(st.just("post")),
            st.tuples(st.just("submit"), st.sampled_from([OP_READ, OP_WRITE])),
        ),
    ),
    min_size=1, max_size=8,
).map(lambda runs: [step for bursts, then in runs for step in bursts + [then]])

_LIMIT_PROGRAM = st.fixed_dictionaries({
    "cores": st.integers(1, 2),
    "steps": _LIMIT_STEPS,
    # other threads: bursts as calls and sleeps, so their turns are
    # heap entries the limit must stop short of (or, on one core, a run
    # queue that keeps the thread off the limit)
    "others": st.lists(st.lists(st.tuples(
        st.sampled_from(["call", "sleep"]), _NS,
    ), min_size=1, max_size=6), max_size=2),
    # timers, each probing the device; one with a delay of its own goes
    # on through run_through
    "timers": st.lists(
        st.tuples(_NS, st.one_of(st.none(), _NS)), max_size=6
    ),
    "stop": st.one_of(
        st.none(),
        st.tuples(st.just("until_ns"), st.integers(0, 60_000)),
        # a float bound makes a float limit; the clock must stay int
        st.tuples(st.just("until_ns"), st.sampled_from([999.5, 12_345.0])),
        _STOP_AT,
        st.tuples(st.just("max_events"), st.integers(1, 60)),
    ),
})


class _LimitMachine:
    """One thread spending a mixed program next to other threads and
    timers: on the plain kernel, on one with no cached limit
    (``uncached``) or with every burst through the heap (``slow``)."""

    def __init__(self, program, uncached=False, slow=False):
        stop = program["stop"] or (None,)
        max_events = stop[1] if stop[0] == "max_events" else 500_000_000
        kernel = _UncachedEngine if uncached else Engine
        self.engine = engine = kernel(seed=1, max_events=max_events)
        self.simos = simos = SimOS(engine, OsProfile(
            cores=program["cores"], quantum_ns=1_000, context_switch_ns=300,
        ))
        self.sem = Semaphore(0)
        # an idle device posts a read 100 ns after its submit and a
        # write 250 ns after, as bursts end: ties with a burst that ran
        # through the service completion minting the post
        self.device = NvmeDevice(engine, fast_test_profile(
            fetch_ns=0, read_service_ns=50, write_service_ns=200,
            post_ns=50, probe_iface_ns=0,
        ))
        self.qpair = self.device.alloc_qpair()
        self.unreaped = 0
        self.log = []
        if slow:
            subscribe(engine, "on_dispatch", lambda event: None)
        self.threads = [simos.spawn(self._main(program["steps"]))]
        for index, instrs in enumerate(program["others"]):
            self.threads.append(simos.spawn(self._other(index, instrs)))
        for index, (delay_ns, then_ns) in enumerate(program["timers"]):
            engine.schedule(delay_ns, self._timer, index, then_ns)
        if stop[0] == "stop_at":
            engine.schedule(stop[1], engine.stop)
        try:
            engine.run(stop[1] if stop[0] == "until_ns" else None)
            self.outcome = "ok"
        except SimulationError as exc:
            self.outcome = str(exc)

    def _note(self, *what):
        self.log.append(what + (self.engine.now,))

    def _probe(self):
        completed = self.device.probe(self.qpair)
        self.unreaped -= len(completed)
        return [
            (completion.command.lba, completion.visible_ns)
            for completion in completed
        ]

    def _timer(self, index, then_ns):
        self._note("timer", index)
        self._note("timer-probe", index, self._probe())
        if then_ns is not None and self.engine.run_through(
            then_ns, self._note, "timer-after", index
        ):
            self._note("timer-after", index)

    def _main(self, steps):
        simos = self.simos
        engine = self.engine
        cpu = simos.cpu
        for step, (kind, *args) in enumerate(steps):
            if kind == "burst":
                cpu(*args) or (yield)
                if self.unreaped:
                    self._note("probe", step, self._probe())
            elif kind == "observe":
                self._note("observe", step)
            elif kind == "push":
                engine.schedule(args[0], self._note, "pushed", step)
            elif kind == "push_at":
                engine.schedule_at(
                    engine.now + args[0], self._note, "pushed", step
                )
            elif kind == "sleep":
                yield Sleep(args[0])
            elif kind == "repeat":
                ns, category, count = args
                for _ in range(count - simos.cpu_repeat(ns, category, count)):
                    cpu(ns, category) or (yield)
            elif kind == "submit":
                data = bytes(self.device.profile.page_size)
                self.device.submit(self.qpair, NvmeCommand(
                    args[0], step, data if args[0] == OP_WRITE else None,
                ))
                self.unreaped += 1
            else:
                simos.sem_post(self.sem) or (yield)
        self._note("end")

    def _other(self, index, instrs):
        cpu = self.simos.cpu
        for kind, ns in instrs:
            if kind == "call":
                cpu(ns) or (yield)
            else:
                yield Sleep(ns)
            self._note("other", index)

    def observed(self):
        return {
            "outcome": self.outcome,
            "now": self.engine.now,
            "log": self.log,
            "accounts": [
                (dict(t.account.by_category), t.account.total_ns)
                for t in self.threads
            ],
            "busy_ns": [core.busy_ns for core in self.simos.cores],
            "sem": self.sem.count,
            "pending": len(self.engine.events),
            "device": self._device_state(),
        }

    def _device_state(self):
        device = self.device
        return (
            device.outstanding.average(), device.outstanding.max_value,
            device.reads_completed.value, device.writes_completed.value,
            self.qpair.completed, device.probe_calls.value,
        )


@settings(max_examples=200, deadline=None)
@given(_LIMIT_PROGRAM)
def test_bursts_within_the_limit_run_the_same_as_through_the_heap(program):
    fast = _LimitMachine(program)
    # the cache is what advance would grant: the same steps, in place
    uncached = _LimitMachine(program, uncached=True)
    assert fast.observed() == uncached.observed()
    assert (fast.engine.dispatched, fast.engine.inlined) == (
        uncached.engine.dispatched, uncached.engine.inlined,
    )
    if program["stop"] and program["stop"][0] == "max_events":
        return  # the heap-only run spends the same budget sooner
    slow = _LimitMachine(program, slow=True)
    assert slow.observed() == fast.observed()
    assert slow.engine.inlined == 0
    assert slow.engine.dispatched == fast.engine.dispatched + fast.engine.inlined


@pytest.mark.parametrize("second_ns", [49, 50])
def test_a_burst_ending_at_a_pending_event_is_not_fused(second_ns):
    # spawn() schedules the first burst (ends at 50); the second ends one
    # short of the timer at 100 (in place) or exactly at it (a tie: the
    # timer was pushed first and fires first, through run_through)
    real = CPU_CATEGORIES[0]
    program = {
        "cores": 1, "others": [], "timers": [(100, None)], "stop": None,
        "steps": [("burst", 50, real), ("burst", second_ns, real), ("observe",)],
    }
    fast = _LimitMachine(program)
    assert fast.observed() == _LimitMachine(program, uncached=True).observed()
    observe = ("observe", 2, 50 + second_ns)
    timer_first = fast.log.index(("timer", 0, 100)) < fast.log.index(observe)
    assert timer_first == (second_ns == 50)
    assert (fast.engine.dispatched, fast.engine.inlined) == (2, 1)


def _limit_inside(body, cores=1):
    """What a thread body records from inside its second step (the
    first is spawn()'s burst, ending at 100), with an event pending at
    50 000."""
    engine = Engine(seed=1)
    simos = SimOS(engine, OsProfile(cores=cores))
    seen = []

    def main():
        simos.cpu(100) or (yield)
        yield from body(engine, simos, seen)

    simos.spawn(main())
    engine.schedule(50_000, lambda: seen.append(("event", engine.now)))
    engine.run()
    return seen


def _burst(simos, ns):
    simos.cpu(ns) or (yield)


def test_the_window_reaches_just_short_of_the_next_event():
    def body(engine, simos, seen):
        assert engine.limit_ns == -1  # a callback starts with none
        yield from _burst(simos, 10)  # advance caches it
        seen.append(engine.limit_ns)
        yield from _burst(simos, 49_889)  # the last instant it allows
        seen.append((engine.now, engine.limit_ns, engine.inlined))

    seen = _limit_inside(body)
    assert seen == [49_999, (49_999, 49_999, 2), ("event", 50_000)]


def _on_dispatch_mid_callback(engine, simos, seen):
    yield from _burst(simos, 10)
    subscribe(engine, "on_dispatch", lambda event: None)
    yield from _burst(simos, 10)  # inside the limit, through the heap
    seen.append((engine.dispatched, engine.inlined))


def _queued(engine, simos, seen):
    # spawned on the one core: it waits in the run queue
    simos.spawn(_burst(simos, 10))
    yield from _burst(simos, 10)
    seen.append(engine.limit_ns)  # run through: no limit cached
    yield from _burst(simos, 10)
    seen.append((engine.dispatched, engine.inlined))


def _spawning(engine, simos, seen):
    yield from _burst(simos, 10)
    start_ns = engine.now

    def child():
        # stepped inside spawn(), whose caller goes on at this instant:
        # the clock must not move, limit or no limit
        seen.append(start_ns + 10 <= engine.limit_ns)
        yield from _burst(simos, 10)

    simos.spawn(child())
    seen.append(engine.now - start_ns)


def _push_inside(engine, simos, seen):
    yield from _burst(simos, 10)
    engine.schedule(100, lambda: seen.append(("pushed", engine.now)))
    seen.append(engine.limit_ns - engine.now)
    engine.schedule_at(engine.now + 40, lambda: seen.append(
        ("pushed-at", engine.now)
    ))
    seen.append(engine.limit_ns - engine.now)
    yield from _burst(simos, 40)  # a tie: the pushed event runs first
    seen.append(("after", engine.now))


def _tie(engine, simos, seen):
    yield from _burst(simos, 10)
    yield from _burst(simos, 50_000 - engine.now)
    seen.append(("after", engine.now, engine.limit_ns))


def _stop(engine, simos, seen):
    yield from _burst(simos, 10)
    engine.stop()
    seen.append(engine.limit_ns)
    yield from _burst(simos, 10)  # through the heap; the run ends first
    seen.append("never")


# refusal: (body, _limit_inside's keywords, what the body records)
_REFUSALS = {
    "on_dispatch": (_on_dispatch_mid_callback, {}, [(2, 1)]),
    "queued": (_queued, {}, [-1, (1, 2)]),
    "spawning": (_spawning, {"cores": 2}, [True, 0]),
    "push": (_push_inside, {}, [
        99, 39, ("pushed-at", 150), ("after", 150), ("pushed", 210),
    ]),
    "tie": (_tie, {}, [("event", 50_000), ("after", 50_000, -1)]),
    "stop": (_stop, {}, [-1]),
}


@pytest.mark.parametrize("refusal", sorted(_REFUSALS))
def test_the_window_is_closed_when_anything_else_may_run(refusal):
    body, kwargs, expected = _REFUSALS[refusal]
    seen = _limit_inside(body, **kwargs)
    if refusal not in ("tie", "stop"):
        expected = expected + [("event", 50_000)]
    assert seen == expected


def test_a_nested_run_through_caps_the_limit_at_its_slot():
    engine = Engine(seed=1)
    simos = SimOS(engine, OsProfile(cores=2))
    seen = []

    def outer():
        simos.cpu(100) or (yield)
        # the other thread's turn at 500 runs from inside this burst,
        # whose slot is 1 100
        simos.cpu(1_000) or (yield)
        seen.append(("outer", engine.now, engine.limit_ns))

    def inner():
        simos.cpu(500) or (yield)
        simos.cpu(10) or (yield)
        seen.append(("inner", engine.now, engine.limit_ns))
        simos.cpu(700) or (yield)  # past the slot: through the heap
        seen.append(("inner", engine.now, engine.limit_ns))

    simos.spawn(outer())
    simos.spawn(inner())
    engine.run()
    assert seen == [
        ("inner", 510, 1_099), ("outer", 1_100, -1), ("inner", 1_210, -1),
    ]


def _observe(entry):
    pass


def _refused_inside_the_limit(keep_observer):
    """A refused run_through pushes its entry where schedule would, and
    lowers the cached limit as schedule does: an in-place burst caches
    the limit (49 999, short of the event at 50 000), an observer bound
    mid-callback refuses a continuation ending at 210, inside it, and
    once the observer is gone the next burst must not pass 210 in place.
    With the observer kept, every burst goes through the heap."""

    def body(engine, simos, seen):
        yield from _burst(simos, 10)
        seen.append(engine.limit_ns)
        subscribe(engine, "on_dispatch", _observe)
        assert not engine.run_through(
            100, lambda: seen.append(("pushed", engine.now))
        )
        seen.append(engine.limit_ns)
        if not keep_observer:
            unsubscribe(engine, "on_dispatch", _observe)
        yield from _burst(simos, 200)
        seen.append(("after", engine.now))
        seen.append(engine.dispatched + engine.inlined)

    return _limit_inside(body)


@pytest.mark.parametrize("keep_observer", [False, True],
                         ids=["unsubscribed", "heap"])
def test_a_refused_run_through_lowers_the_cached_limit(keep_observer):
    assert _refused_inside_the_limit(keep_observer) == [
        49_999, 209, ("pushed", 210), ("after", 310), 4, ("event", 50_000),
    ]


def test_the_window_stops_inside_the_event_budget():
    engine = Engine(max_events=40)
    simos = SimOS(engine, OsProfile(cores=1))
    seen = []

    def body():
        simos.cpu(100) or (yield)
        simos.cpu(1) or (yield)
        seen.append(engine.limit_ns - engine.now)

    simos.spawn(body())
    engine.run()
    # one dispatched (spawn's burst), one inlined, heap empty, no
    # horizon: the budget bounds the nanoseconds, since every counted
    # burst takes one or more
    assert seen == [38]
    assert engine.limit_ns == -1  # and run() drops it as it ends


def _spinner_of_ones(simos, bursts=1_000):
    cpu = simos.cpu
    for _ in range(bursts):
        cpu(1, CPU_CATEGORIES[0]) or (yield)


@pytest.mark.parametrize("max_events", [1, 2, 37, 100])
def test_max_events_trips_at_the_same_count_with_and_without_fusion(
    max_events,
):
    trips = []
    for kernel in (Engine, _UncachedEngine):
        engine = kernel(max_events=max_events)
        simos = SimOS(engine, OsProfile(cores=1))
        thread = simos.spawn(_spinner_of_ones(simos))
        with pytest.raises(SimulationError, match="event budget exceeded"):
            engine.run()
        trips.append((
            engine.dispatched, engine.inlined, engine.now,
            thread.account.total_ns, simos.cores[0].busy_ns,
        ))
    assert trips[0] == trips[1]
    assert trips[0][0] + trips[0][1] == max_events + 1


def _weak_session_run(slow):
    """A weak-persistence session whose buffer holds part of the tree:
    hits, misses, evictions and syncs.  Returns what it observed and
    its kernel."""
    session = PATreeSession(
        seed=5, persistence="weak", buffer_pages=24, scheduler="naive",
        window=16,
    )
    engine = session.env.engine
    if slow:
        subscribe(engine, "on_dispatch", lambda event: None)
    submits = []
    subscribe(
        session.env.device, "on_submit",
        lambda command: submits.append((command.opcode, command.lba, engine.now)),
    )
    session.bulk_load(
        [(key, key.to_bytes(8, "little")) for key in range(0, 200_000, 4)]
    )
    rng = random.Random(11)
    operations = []
    for index in range(900):
        key = rng.randrange(200_000)
        roll = rng.random()
        if roll < 0.45:
            operations.append(search_op(key))
        elif roll < 0.75:
            # new keys, crowded into a few leaves: they split, and the
            # new pages evict dirty ones
            operations.append(insert_op(key % 4_000 | 1, rng.randbytes(8)))
        elif roll < 0.9:
            operations.append(delete_op(key))
        else:
            operations.append(range_op(key, key + 40))
        if index % 300 == 299:
            operations.append(sync_op())
    session.execute(operations)
    worker = session.pa_engine
    observed = {
        "ops": [
            (op.kind, op.key, op.result, op.admit_ns, op.done_ns)
            for op in operations
        ],
        "latencies": worker.latencies.samples(),
        "account": dict(worker.worker_thread.account.by_category),
        "busy_ns": [core.busy_ns for core in session.env.os.cores],
        "stats": session.stats(),
        "hits": worker.buffer.hits,
        "submits": submits,
        "now": engine.now,
    }
    session.close()
    return observed, engine


def test_a_weak_buffered_session_runs_the_same_with_every_burst_through_the_heap():
    fast, fast_engine = _weak_session_run(slow=False)
    slow, slow_engine = _weak_session_run(slow=True)
    assert fast == slow
    assert slow_engine.inlined == 0
    assert slow_engine.dispatched == fast_engine.dispatched + fast_engine.inlined
    # the run hit, missed, evicted and waited for latches
    stats = fast["stats"]
    assert stats["device_reads"] and stats["device_writes"]
    assert stats["latch_waits"] and fast["hits"]


def _contended_wave_run(slow):
    """Two operations each write the same two leaves as one coalesced
    wave, the second while the first's writes are still in flight, so
    every page of its wave joins a write chain and none goes out with
    it.  Returns what the run observed and its engine."""
    engine = Engine(seed=1)
    simos = SimOS(engine, OsProfile(cores=1))
    device = NvmeDevice(engine, fast_test_profile())
    tree = PaTree.create(device)
    tree.bulk_load([(key, key.to_bytes(8, "little")) for key in range(300)])
    root = Node.from_bytes(
        tree.config, tree.meta.root_page, device.raw_read(tree.meta.root_page)
    )
    leaves = root.children[:2]
    if slow:
        subscribe(engine, "on_dispatch", lambda event: None)
    worker = PaTreeEngine(
        simos, NvmeDriver(device), tree, NaiveScheduling(),
        ClosedLoopSource([], window=2),
    )

    def wave(op):
        nodes = []
        for page_id in leaves:
            node = yield ReadEff(page_id)
            node.values[0] = op.key.to_bytes(8, "little")
            nodes.append(node)
        yield WriteEff(nodes, coalesce=True)
        op.result = op.key

    worker._make_plan = wave
    vectors = []
    write_many = worker.driver.write_many

    def counted_write_many(qpair, pages, **kwargs):
        vectors.append([page_id for page_id, _data in pages])
        return write_many(qpair, pages, **kwargs)

    worker.driver.write_many = counted_write_many
    operations = worker.run_operations([search_op(7), search_op(9)], window=2)
    observed = {
        "ops": [(op.result, op.admit_ns, op.done_ns) for op in operations],
        "images": [device.raw_read(page_id) for page_id in leaves],
        "vectors": vectors,
        "writes": device.writes_completed.value,
        "now": engine.now,
    }
    return observed, engine, tree, leaves


def test_a_wave_whose_pages_all_have_a_write_in_flight_parks_and_lands_last():
    fast, fast_engine, tree, leaves = _contended_wave_run(slow=False)
    slow, slow_engine, _, _ = _contended_wave_run(slow=True)
    assert fast == slow
    assert slow_engine.dispatched == fast_engine.dispatched + fast_engine.inlined
    # the first wave went out as one vector of two; the second parked on
    # both chains, and its writes went out as each chain advanced
    assert fast["vectors"] == [list(leaves)] and fast["writes"] == 4
    first, second = fast["ops"]
    assert second[2] > first[2]
    for page_id, image in zip(leaves, fast["images"]):
        node = Node.from_bytes(tree.config, page_id, image)
        assert node.values[0] == (9).to_bytes(8, "little")
