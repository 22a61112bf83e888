"""Hook conformance for the kernel fast path.

The in-place clock advance (``Engine.try_advance``, the polled
worker's idle turns taken in one go through ``try_advance_repeat``, and
a call that runs the events due before it ends from its own frame,
``run_through``) may run only when no kernel-level hook wants to see
every event: an ``on_dispatch`` subscriber and a bound
``perturb_delay`` turn it off.  Every other slot
of ``tools/analysis/layers.toml [hooks]`` -- observer slots take their
recorder through ``repro.sim.hooks.subscribe``, decision slots by plain
assignment -- fires from code that runs the same either way, so a run
with a recording no-op in the slot must make the same calls at the same
virtual instants and report the same statistics whether the fast path
is on or forced off.
"""

import os
import sys
import types
from functools import partial

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if REPO_ROOT not in sys.path:
    sys.path.insert(0, REPO_ROOT)

from repro.backend import fast_test_profile, make_backend
from repro.baselines.io_service import SharedIoService
from repro.baselines.latching import BlockingLatchTable
from repro.baselines.runner import BaselineRunner
from repro.baselines.sync_tree import SyncTreeAccessor
from repro.bench import cli
from repro.core.engine import PaTreeEngine
from repro.core.ops import delete_op, insert_op, search_op, update_op
from repro.core.source import ClosedLoopSource
from repro.core.tree import PaTree
from repro.faults import FaultConfig
from repro.fuzz.hooks import HookBinder
from repro.obs import TraceSession
from repro.obs.health import MetricsSession
from repro.sched.naive import NaiveScheduling
from repro.sched.probe_model import cached_probe_model
from repro.sched.workload_aware import WorkloadAwareScheduling
from repro.shard import ShardedPaTree
from repro.sim.engine import Engine
from repro.sim.hooks import subscribe
from repro.sim.metrics import CPU_CATEGORIES
from repro.simos.scheduler import OsProfile, SimOS
from repro.simos.thread import Cpu
from tools import slow_path
from tools.analysis.projconf import load_config

# registered as "Class.slot"; the stack below finds the owner by hasattr
_CONFIG = load_config()
OBSERVERS = sorted(_CONFIG.observer_slots)
HOOK_NAMES = OBSERVERS + sorted(_CONFIG.decision_slots)

# what each decision hook must answer to behave like the unbound slot
_UNBOUND = {
    "pick_runnable": lambda queue: 0,
    "wakeup_pick": lambda waiters: 0,
    "preempt_policy": lambda thread, used_ns, quantum_ns: used_ns >= quantum_ns,
    "perturb_delay": lambda delay_ns: delay_ns,
    "perturb_service": lambda command, service_ns: service_ns,
}


def _payload(key):
    return (key % 2**64).to_bytes(8, "little")


def _operations(n_ops=40):
    # a run of neighbouring deletes first, so leaves merge and pages
    # are released; then a read-mostly mix
    ops = [delete_op(k * 10) for k in range(1, 46)]
    for index in range(n_ops):
        key = ((index * 37) % 400 + 1) * 10
        if index % 5 == 0:
            ops.append(update_op(key, _payload(key + 1)))
        elif index % 7 == 0:
            ops.append(insert_op(key + 3, _payload(key + 3)))
        else:
            ops.append(search_op(key))
    return ops


class _Stack:
    """A small machine with either paradigm on top."""

    def __init__(self, arm):
        self.engine = Engine(seed=3)
        # idle turns the kernel took in bursts, for the asserts below
        self.repeats_taken = 0
        take = self.engine.try_advance_repeat
        self.engine.try_advance_repeat = (
            lambda step_ns, count: self._taken(take(step_ns, count))
        )
        self.simos = SimOS(self.engine, OsProfile(cores=4))
        self.backend = make_backend(
            "sim", engine=self.engine, profile=fast_test_profile(),
            # transient read errors, so the driver's retry path runs too
            faults=FaultConfig(read_error_rate=0.05),
        )
        self.device = self.backend.device
        self.driver = self.backend.driver
        self.tree = PaTree.create(self.device)
        self.tree.bulk_load(
            [(k * 10, _payload(k * 10)) for k in range(1, 401)]
        )
        self.ops = _operations()
        self.worker = None
        if arm.startswith("pa_tree"):
            policy = NaiveScheduling()
            if arm == "pa_tree_gated":  # Algorithm 2: gate, skip, yield
                policy = WorkloadAwareScheduling(
                    cached_probe_model(fast_test_profile())
                )
            self.worker = self.runner = PaTreeEngine(
                self.simos, self.backend, self.tree, policy,
                source=ClosedLoopSource(self.ops, window=16),
            )
        else:  # the paper's synchronous paradigm, oversubscribed
            accessor = SyncTreeAccessor(
                self.tree, SharedIoService(self.driver), BlockingLatchTable()
            )
            self.runner = BaselineRunner(
                self.simos, accessor, self.ops, n_threads=12, name="shared"
            )
        self.calls = []

    def owner(self, name):
        """The object whose slot ``name`` is, if any."""
        for obj in (self.engine, self.simos, self.device, self.driver,
                    self.tree, self.worker):
            if obj is not None and hasattr(obj, name):
                return obj
        return None

    def bind_recorder(self, name, tag=None):
        """Put a recorder in the slot: subscribed next to whoever is
        there (SimOS's stall guard in ``on_idle``, the engine worker in
        ``on_page_released``) for an observer slot, assigned and
        answering like the unbound slot for a decision slot."""
        owner = self.owner(name)
        if owner is None:  # the baselines have no worker.on_op_complete
            return
        if name in OBSERVERS:
            subscribe(owner, name, partial(self._record, tag or name, None))
        else:
            setattr(owner, name, partial(self._record, name, _UNBOUND[name]))

    def _taken(self, count):
        self.repeats_taken += count
        return count

    def _record(self, tag, behave, *args):
        self.calls.append((tag, self.engine.now))
        return behave(*args) if behave is not None else None

    def force_slow(self):
        subscribe(self.engine, "on_dispatch", lambda event: None)

    def run(self):
        self.runner.run_to_completion()
        return self

    def stats(self):
        simos = self.simos
        account = simos.cpu_account()
        return {
            "now": self.engine.now,
            "results": [(op.result, op.done_ns, op.error) for op in self.ops],
            "reads": self.device.reads_completed.value,
            "writes": self.device.writes_completed.value,
            "busy_ns": [core.busy_ns for core in simos.cores],
            "cpu": {name: account.by_category[name] for name in CPU_CATEGORIES},
            "context_switches": simos.context_switches.value,
            "preemptions": simos.preemptions.value,
            "sem_blocks": simos.sem_blocks.value,
            "probes": self.worker.probes.value if self.worker else None,
            "items": sorted(self.tree.iterate_items_raw()),
        }


@pytest.mark.parametrize("arm", ["pa_tree", "pa_tree_gated", "sync_shared"])
@pytest.mark.parametrize("name", HOOK_NAMES)
def test_a_bound_hook_sees_the_same_run_on_either_path(name, arm):
    plain = _Stack(arm)
    plain.bind_recorder(name)
    plain.run()
    slow = _Stack(arm)
    slow.bind_recorder(name)
    slow.force_slow()
    slow.run()

    assert plain.calls == slow.calls
    assert plain.stats() == slow.stats()
    assert slow.engine.inlined == 0 and slow.repeats_taken == 0
    assert (
        slow.engine.dispatched
        == plain.engine.dispatched + plain.engine.inlined
    )
    if name in ("on_dispatch", "perturb_delay"):
        # the two hooks that see every event or every delay
        assert plain.engine.inlined == 0 and plain.repeats_taken == 0
        assert plain.calls
    elif arm != "sync_shared":
        # any other subscriber leaves the worker its bursts
        assert plain.engine.inlined > plain.repeats_taken > 0
    else:
        # and the blocking threads their bursts and semaphore syscalls
        assert plain.engine.inlined > 0


def test_two_recorders_on_one_slot_see_the_same_calls_in_subscription_order():
    stack = _Stack("pa_tree")
    for name in OBSERVERS:
        stack.bind_recorder(name, tag=(name, "first"))
        stack.bind_recorder(name, tag=(name, "second"))
    stack.run()
    fired = set()
    for name in OBSERVERS:
        seen = [(who, now) for (slot, who), now in stack.calls if slot == name]
        firsts, seconds = seen[0::2], seen[1::2]
        assert all(who == "first" for who, _now in firsts), name
        assert all(who == "second" for who, _now in seconds), name
        assert [now for _who, now in firsts] == [now for _who, now in seconds]
        if seen:
            fired.add(name)
    # only the stall guard's slot stays silent in a run that finishes
    assert fired == set(OBSERVERS) - {"on_idle"}


def _spin(engine, until_ns):
    """Run a lone spinner up to ``until_ns``; returns bursts inlined."""
    before = engine.inlined
    engine.run(until_ns=until_ns)
    assert engine.now == until_ns
    return engine.inlined - before


def _spinning_machine():
    engine = Engine(seed=1)
    simos = SimOS(engine, OsProfile(cores=2))

    def spin():
        while True:
            yield Cpu(100)

    simos.spawn(spin())
    return engine, simos


def test_trace_session_turns_the_fast_path_off_until_it_finishes():
    engine, simos = _spinning_machine()
    assert _spin(engine, 10_000) > 0
    session = TraceSession(engine).attach_simos(simos).start()
    assert _spin(engine, 20_000) == 0
    assert session.dispatches > 0
    session.finish()
    assert _spin(engine, 30_000) > 0


def test_fuzz_hook_binder_turns_the_fast_path_off_until_unbound():
    engine, simos = _spinning_machine()
    decider = types.SimpleNamespace(
        wants_delay_hook=True, delay=lambda delay_ns: delay_ns,
        pick=lambda n: 0, wakeup=lambda n: 0,
        preempt=lambda used_ns, quantum_ns: used_ns >= quantum_ns,
    )
    assert _spin(engine, 10_000) > 0
    with HookBinder(decider).bind(simos=simos, engine=engine):
        assert _spin(engine, 20_000) == 0
    assert _spin(engine, 30_000) > 0


def test_metrics_session_needs_no_fallback_and_scrapes_the_same():
    """MetricsSession binds no kernel-level hook: its scrapes are heap
    events the fast path never advances past, and its taps sit on
    device / driver / worker slots.  So it keeps the fast path on, and
    what it records must not depend on it."""

    def run(slow):
        stack = _Stack("pa_tree")
        session = MetricsSession(stack.engine, scrape_interval_ns=20_000)
        session.attach_device(stack.device).attach_worker(stack.worker)
        session.start()
        if slow:
            stack.force_slow()
        stack.run()
        session.finish()
        return stack, session

    fast, fast_session = run(slow=False)
    slow, slow_session = run(slow=True)
    assert fast.engine.inlined > 0 and slow.engine.inlined == 0
    assert fast.stats() == slow.stats()
    assert len(fast_session.sampler.samples) > 3
    assert fast_session.sampler.samples == slow_session.sampler.samples
    assert fast_session.slo.snapshot() == slow_session.slo.snapshot()


def test_four_shards_dispatch_fewer_events_with_the_same_rows():
    """Four polled workers on one kernel: a burst that another shard's
    turn interrupts runs that turn from inside its call instead of
    waiting in the heap behind it (``Engine.run_through``), which the
    forced-slow run never does."""

    def run(slow):
        engine = Engine(seed=5)
        simos = SimOS(engine, OsProfile(cores=8))
        sharded = ShardedPaTree(simos, 4, device_profile=fast_test_profile())
        sharded.bulk_load([(k * 10, _payload(k * 10)) for k in range(1, 401)])
        if slow:
            subscribe(engine, "on_dispatch", lambda event: None)
        ops = sharded.run_operations(_operations(), window=16)
        rows = [(op.result, op.done_ns, op.error) for op in ops]
        accounts = [
            worker.worker_thread.account.by_category
            for worker in sharded.engines
        ]
        return engine, (rows, accounts, sharded.stats(), engine.now)

    plain_engine, plain = run(slow=False)
    slow_engine, slow = run(slow=True)
    assert plain == slow
    assert slow_engine.inlined == 0
    assert (
        slow_engine.dispatched
        == plain_engine.dispatched + plain_engine.inlined
    )
    assert plain_engine.dispatched < slow_engine.dispatched


#: The three slowest cases, about two thirds of this test's time, are
#: left to CI's slow-path pass (``python -m tools.slow_path all --ops
#: 200``, ``diff -r`` against ``bench all``), which runs every exhibit.
_LEFT_TO_THE_SLOW_PATH_PASS = ("fig7", "fig15", "shards")


def _exhibit_modules():
    """One case per exhibit module: table1, table2 and fig9 share one
    ``run``; fig3 sweeps virtual durations and refuses ``ops``."""
    names = {}
    for name, (_title, module, _render) in sorted(cli._EXHIBITS.items()):
        if name not in _LEFT_TO_THE_SLOW_PATH_PASS:
            names.setdefault(module, []).append(name)
    return [
        pytest.param(
            module, id="+".join(ids),
            marks=[pytest.mark.skip(reason="time-based: refuses ops")]
            if ids == ["fig3"] else [],
        )
        for module, ids in names.items()
    ]


@pytest.mark.parametrize("module", _exhibit_modules())
def test_an_exhibit_gives_the_same_rows_with_the_fast_path_forced_off(
    module, monkeypatch,
):
    """Every kernel an exhibit builds gets a no-op ``on_dispatch``
    subscriber, which sends every burst, syscall and idle turn through
    the heap: the rows must not move."""
    plain = module.run(ops=20)
    getattr(module, "_CACHE", {}).clear()
    init = Engine.__init__

    def init_forced_slow(engine, *args, **kwargs):
        init(engine, *args, **kwargs)
        subscribe(engine, "on_dispatch", lambda event: None)

    monkeypatch.setattr(Engine, "__init__", init_forced_slow)
    assert module.run(ops=20) == plain


def test_the_slow_path_driver_subscribes_on_every_engine(monkeypatch):
    """``python -m tools.slow_path`` (CI's second ``bench all`` pass) is
    the exhibit test above for all fifteen exhibits at ``--ops 200``."""
    monkeypatch.setattr(Engine, "__init__", Engine.__init__)  # undone after
    slow_path.force_slow_path()
    engine = Engine(seed=3)
    assert engine.on_dispatch == (slow_path._ignore,)
    # the kernel's in-place limit never leaves -1: every burst is an event
    simos = SimOS(engine, OsProfile(cores=1))
    limits = []

    def body():
        for _ in range(3):
            simos.cpu(100) or (yield)
            limits.append(engine.limit_ns)

    simos.spawn(body())
    engine.run()
    assert limits == [-1, -1, -1]
    assert (engine.dispatched, engine.inlined) == (3, 0)


def test_the_slow_path_driver_runs_each_exhibit_of_all_in_a_child(
    monkeypatch, tmp_path, capfd
):
    """Under ``all`` each exhibit runs in a fresh interpreter of its own,
    writes what a one-process run writes and prints in ``all``'s order,
    and a failing child fails the pass."""
    names = ("fig10", "fig13")
    monkeypatch.setattr(cli, "_EXHIBITS", {name: cli._EXHIBITS[name] for name in names})
    monkeypatch.chdir(REPO_ROOT)
    argv = ["all", "--ops", "20", "--out", str(tmp_path / "each")]
    assert slow_path.run_each(argv) == 0
    output = capfd.readouterr().out
    headers = ["=== %s ===" % cli._EXHIBITS[name][0] for name in names]
    assert [line for line in output.splitlines() if line.startswith("===")] == headers
    assert cli.main(["all", "--ops", "20", "--out", str(tmp_path / "one")]) == 0
    for name in os.listdir(tmp_path / "one"):
        with open(tmp_path / "one" / name, "rb") as one:
            with open(tmp_path / "each" / name, "rb") as each:
                assert each.read() == one.read(), name
    assert len(os.listdir(tmp_path / "each")) == 4

    monkeypatch.setitem(cli._EXHIBITS, "nosuch", cli._EXHIBITS["fig10"])
    assert slow_path.run_each(["all", "--ops", "20"]) != 0
