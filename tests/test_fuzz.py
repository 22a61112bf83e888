"""Tests for repro.fuzz: hooks, decision layer, harness, shrink, CLI."""

import json

import pytest

from repro.api import PATreeSession
from repro.errors import LivelockError, SchedulerError
from repro.fuzz import (
    FuzzConfig,
    FuzzRunConfig,
    HookBinder,
    NoProgressWatchdog,
    ScheduleExplorer,
    TraceDecider,
    config_from_jsonable,
    config_jsonable,
    explore,
    known_bad_config,
    make_workload,
    replay,
    run_one,
    shrink_trace,
)
from repro.fuzz.cli import main as fuzz_main
from repro.sim.clock import usec
from repro.sim.engine import Engine
from repro.sim.metrics import CPU_REAL_WORK
from repro.sim.rng import RngRegistry
from repro.simos.scheduler import OsProfile, SimOS
from repro.simos.sync import Semaphore
from repro.simos.thread import Cpu, SemPost, SemWait


def make_os(cores=1, **kwargs):
    engine = Engine(seed=1)
    return engine, SimOS(engine, OsProfile(cores=cores, **kwargs))


# ---------------------------------------------------------------------------
# scheduler exploration hooks
# ---------------------------------------------------------------------------


def test_pick_runnable_hook_reorders_dispatch():
    engine, simos = make_os(cores=1, context_switch_ns=0)
    order = []

    def body(name):
        yield Cpu(usec(1), CPU_REAL_WORK)
        order.append(name)

    # with one core, b and c queue behind a; picking the tail first
    # inverts their dispatch order
    simos.pick_runnable = lambda queue: len(queue) - 1
    simos.spawn(body("a"))
    simos.spawn(body("b"))
    simos.spawn(body("c"))
    engine.run()
    assert order == ["a", "c", "b"]


def test_pick_runnable_out_of_range_raises():
    engine, simos = make_os(cores=1)

    def body():
        yield Cpu(usec(1), CPU_REAL_WORK)

    simos.pick_runnable = lambda queue: len(queue)
    simos.spawn(body())
    simos.spawn(body())
    simos.spawn(body())
    with pytest.raises(SchedulerError, match="out of range"):
        engine.run()


def test_preempt_policy_hook_forces_early_preemption():
    # bursts far below the quantum, but the policy preempts every one
    engine, simos = make_os(cores=1, quantum_ns=usec(1_000), context_switch_ns=0)

    def body():
        for _ in range(3):
            yield Cpu(usec(1), CPU_REAL_WORK)

    simos.preempt_policy = lambda thread, used_ns, quantum_ns: True
    simos.spawn(body())
    simos.spawn(body())
    engine.run()
    assert simos.preemptions.value >= 4


def test_preempt_policy_not_consulted_without_rivals():
    engine, simos = make_os(cores=1, quantum_ns=usec(1))
    consults = []

    def body():
        for _ in range(5):
            yield Cpu(usec(10), CPU_REAL_WORK)

    def policy(thread, used_ns, quantum_ns):
        consults.append(used_ns)
        return False

    simos.preempt_policy = policy
    simos.spawn(body())  # alone: every burst exceeds the quantum
    engine.run()
    assert consults == []
    assert simos.preemptions.value == 0


def test_wakeup_pick_hook_reorders_wakeups():
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

    simos.wakeup_pick = lambda waiters: len(waiters) - 1  # LIFO
    for name in "abc":
        simos.spawn(waiter(name))
    simos.spawn(poster())
    engine.run()
    assert order == ["c", "b", "a"]


def test_device_perturb_service_changes_completion_time():
    def run(factor):
        session = PATreeSession(seed=1, buffer_pages=0)
        if factor != 1:
            session.env.device.perturb_service = (
                lambda command, service_ns: service_ns * factor
            )
        session.bulk_load((k, b"x" * 8) for k in range(1, 200, 2))
        session.get_many(list(range(1, 50)))
        return session.env.now_usec

    assert run(3) > run(1)


# ---------------------------------------------------------------------------
# decision layer: explorer records, decider replays
# ---------------------------------------------------------------------------


def test_explorer_records_every_consultation():
    explorer = ScheduleExplorer(
        FuzzConfig(pick_rate=1.0, wakeup_rate=1.0, io_jitter_rate=1.0),
        RngRegistry(7).stream("fuzz:schedule"),
    )
    explorer.pick(4)
    explorer.preempt(10, 100)
    explorer.wakeup(3)
    explorer.io_service(1_000)
    assert [entry[0] for entry in explorer.trace] == [
        "pick", "preempt", "wakeup", "io",
    ]


def test_explorer_is_deterministic_per_seed():
    def run():
        explorer = ScheduleExplorer(
            FuzzConfig(), RngRegistry(3).stream("fuzz:schedule")
        )
        return [
            explorer.pick(5),
            explorer.io_service(10_000),
            explorer.wakeup(4),
            explorer.preempt(200, 100),
        ], explorer.trace

    assert run() == run()


def test_trace_decider_replays_then_defaults():
    decider = TraceDecider([["pick", 2], ["io", 500]])
    assert decider.pick(5) == 2
    assert decider.io_service(1_000) == 500
    # queues exhausted: pinned defaults
    assert decider.pick(5) == 0
    assert decider.io_service(1_000) == 1_000
    assert decider.preempt(200, 100) is True  # default >= boundary
    assert decider.preempt(50, 100) is False
    assert decider.consumed == 2
    assert decider.defaulted > 0


def test_trace_decider_clamps_indices_into_range():
    decider = TraceDecider([["pick", 9], ["wakeup", 9]])
    assert decider.pick(3) == 2
    assert decider.wakeup(2) == 1


def test_trace_decider_rejects_unknown_site():
    with pytest.raises(SchedulerError, match="unknown trace site"):
        TraceDecider([["warp", 1]])


def test_hook_binder_installs_and_restores():
    engine, simos = make_os(cores=1)
    decider = TraceDecider([["pick", 1]])
    with HookBinder(decider).bind(simos=simos):
        assert simos.pick_runnable is not None
        assert simos.preempt_policy is not None
        assert simos.wakeup_pick is not None
    assert simos.pick_runnable is None
    assert simos.preempt_policy is None
    assert simos.wakeup_pick is None


def test_hook_binder_refuses_double_bind():
    engine, simos = make_os(cores=1)
    simos.pick_runnable = lambda queue: 0
    with pytest.raises(SchedulerError, match="already bound"):
        HookBinder(TraceDecider([])).bind(simos=simos)


# ---------------------------------------------------------------------------
# watchdog
# ---------------------------------------------------------------------------


def test_watchdog_raises_livelock_without_progress():
    engine = Engine(seed=1)
    watchdog = NoProgressWatchdog(engine, budget=50)
    watchdog.bind()

    def tick():
        engine.schedule(10, tick)

    engine.schedule(10, tick)
    with pytest.raises(LivelockError, match="no completion"):
        engine.run()


def test_watchdog_progress_resets_counter():
    engine = Engine(seed=1)
    watchdog = NoProgressWatchdog(engine, budget=50)
    watchdog.bind()
    remaining = [120]

    def tick():
        watchdog.progress()  # completions keep arriving
        remaining[0] -= 1
        if remaining[0]:
            engine.schedule(10, tick)

    engine.schedule(10, tick)
    engine.run()
    assert remaining[0] == 0
    watchdog.unbind()
    assert engine.on_dispatch == ()


# ---------------------------------------------------------------------------
# harness: determinism, parity, replay
# ---------------------------------------------------------------------------

QUICK = dict(n_ops=80)


def test_workload_is_deterministic_and_batch_keys_distinct():
    cfg = FuzzRunConfig(**QUICK)
    steps_a, preload_a = make_workload(5, cfg)
    steps_b, preload_b = make_workload(5, cfg)
    assert repr(steps_a) == repr(steps_b)  # OpSpec has no __eq__
    assert preload_a == preload_b
    assert any(step[0] == "batch" for step in steps_a)
    for step in steps_a:
        if step[0] == "batch":
            keys = [spec.key for spec in step[1]]
            assert len(keys) == len(set(keys))


@pytest.mark.parametrize("target", ["patree", "lsm", "sharded"])
def test_clean_run_passes_all_checks(target):
    cfg = FuzzRunConfig(target=target, **QUICK)
    result = run_one(3, cfg)
    assert result["ok"], result["failure"]
    assert result["failure"] is None
    assert result["ops"] == cfg.n_ops
    assert result["decisions"] == len(result["trace"])
    assert result["virtual_time_us"] > 0


def test_same_seed_same_run_bit_identical():
    cfg = FuzzRunConfig(**QUICK)
    assert run_one(11, cfg) == run_one(11, cfg)


def test_different_seeds_explore_different_schedules():
    cfg = FuzzRunConfig(**QUICK)
    assert run_one(1, cfg)["trace"] != run_one(2, cfg)["trace"]


def test_replaying_a_full_trace_reproduces_the_run():
    cfg = FuzzRunConfig(**QUICK)
    explored = run_one(7, cfg)
    replayed = replay(7, cfg, explored["trace"])
    assert replayed["trace"] == explored["trace"]
    assert replayed["virtual_time_us"] == explored["virtual_time_us"]
    assert replayed["ok"] == explored["ok"]


def test_empty_trace_replay_equals_unfuzzed_run():
    # a drained decider answers every site with the pinned default, so
    # the replayed schedule is the ordinary deterministic one
    cfg = FuzzRunConfig(**QUICK)
    baseline = replay(3, cfg, [])

    from repro.fuzz.harness import KEYSPACE, _build_session

    session = _build_session(3, cfg)
    steps, preload = make_workload(3, cfg)
    session.bulk_load(preload)
    for step in steps:
        if step[0] == "scan":
            session.scan(step[1], step[2])
        else:
            session._run_batch(list(step[1]))
    session.scan(0, KEYSPACE + 1)  # the harness's final sweep
    session.validate()
    assert baseline["ok"]
    assert baseline["virtual_time_us"] == session.env.now_usec


def test_sync_tree_oracle_agrees_on_clean_runs():
    cfg = FuzzRunConfig(sync_oracle=True, **QUICK)
    result = run_one(5, cfg)
    assert result["ok"], result["failure"]


def test_fault_composition_tolerates_and_keeps_parity():
    cfg = FuzzRunConfig(
        n_ops=150,
        faults={"read_error_rate": 0.05, "write_error_rate": 0.05},
        retry={"max_retries": 0},
    )
    result = run_one(1, cfg)
    assert result["ok"], result["failure"]
    assert result["tolerated_faults"] > 0


def test_config_jsonable_round_trip():
    cfg = FuzzRunConfig(
        target="sharded",
        n_ops=64,
        faults={"read_error_rate": 0.01},
        fuzz=FuzzConfig(pick_rate=0.5),
    )
    data = json.loads(json.dumps(config_jsonable(cfg)))
    rebuilt = config_from_jsonable(data)
    assert rebuilt.target == "sharded"
    assert rebuilt.n_ops == 64
    assert rebuilt.fuzz.pick_rate == 0.5
    assert rebuilt.faults == {"read_error_rate": 0.01}


# ---------------------------------------------------------------------------
# shrink + known-bad reproducer
# ---------------------------------------------------------------------------


def test_shrink_trace_isolates_the_triggering_entry():
    poison = ["io", 13]

    def replay_fn(trace):
        failing = poison in trace
        failure = {"kind": "parity", "detail": "x"} if failing else None
        return {"failure": failure}

    noise = [["io", 1_000]] * 40
    trace = noise[:20] + [poison] + noise[20:]
    shrunk, runs = shrink_trace(replay_fn, trace, ["parity", "x"])
    assert shrunk == [poison]
    assert runs > 0


def test_shrink_gives_up_gracefully_when_nothing_reproduces():
    def replay_fn(trace):
        return {"failure": None}

    trace = [["io", 1_000]] * 10
    shrunk, _runs = shrink_trace(replay_fn, trace, ["parity", "x"])
    assert shrunk == trace  # nothing matched, nothing removed


def test_known_bad_schedule_yields_verified_minimal_reproducer():
    cfg = known_bad_config(FuzzRunConfig(**QUICK))
    report = explore(cfg, [1])
    assert report["failures_found"] == 1
    failure = report["failures"][0]
    assert failure["kind"] == "io_error"
    assert "unrecovered" in failure["signature"][1]
    shrink = failure["shrink"]
    assert shrink["verified"]
    assert shrink["shrunk_decisions"] <= shrink["original_decisions"]
    # the reproducer round-trips through JSON and replays to the same
    # failure signature
    repro = json.loads(json.dumps(failure["reproducer"]))
    result = replay(
        repro["seed"], config_from_jsonable(repro["config"]), repro["trace"]
    )
    assert result["failure"] is not None
    assert result["failure"]["signature"] == failure["signature"]
    assert result["failure"]["postmortem"]["error"]


def test_explore_reports_clean_seeds():
    cfg = FuzzRunConfig(n_ops=60)
    report = explore(cfg, [1, 2])
    assert report["seeds_explored"] == 2
    assert report["failures_found"] == 0
    assert [row["seed"] for row in report["results"]] == [1, 2]
    assert all(row["ok"] for row in report["results"])


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_smoke_writes_report(tmp_path, capsys):
    out = tmp_path / "fuzz"
    code = fuzz_main(
        ["--seeds", "2", "--ops", "60", "--out", str(out)]
    )
    assert code == 0
    report = json.loads((out / "fuzz_report_patree.json").read_text())
    assert report["seeds_explored"] == 2
    assert report["failures_found"] == 0
    assert "verdict" in capsys.readouterr().out


@pytest.fixture(scope="module")
def known_bad_run(tmp_path_factory):
    """``--known-bad --ops 60 --out DIR``: its exit code and DIR."""
    out = tmp_path_factory.mktemp("fuzz")
    return fuzz_main(["--known-bad", "--ops", "60", "--out", str(out)]), out


def test_cli_known_bad_and_replay_round_trip(known_bad_run, capsys):
    code, out = known_bad_run
    assert code == 0
    repro_path = out / "fuzz_repro_patree_1.json"
    assert repro_path.exists()
    assert (out / "fuzz_postmortem_patree_1.json").exists()
    code = fuzz_main(["--replay", str(repro_path)])
    assert code == 0
    assert "reproduced" in capsys.readouterr().out


def test_cli_replay_refuses_a_file_that_is_not_a_reproducer(
    known_bad_run, tmp_path, capsys
):
    _code, out = known_bad_run
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{")
    for path in (out / "fuzz_postmortem_patree_1.json", garbled):
        capsys.readouterr()
        assert fuzz_main(["--replay", str(path)]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and "not a fuzz reproducer" in lines[0]


@pytest.mark.parametrize(
    "argv",
    [["--ops", "-3"], ["--ops", "0"], ["--seeds", "0"]],
    ids=["ops-negative", "ops-zero", "seeds-zero"],
)
def test_cli_rejects_sizes_below_one(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        fuzz_main(argv)
    assert exit_info.value.code == 2
    assert "at least 1" in capsys.readouterr().err


def test_cli_output_is_deterministic(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    fuzz_main(["--seeds", "2", "--ops", "60", "--out", str(out_a)])
    fuzz_main(["--seeds", "2", "--ops", "60", "--out", str(out_b)])
    name = "fuzz_report_patree.json"
    assert (out_a / name).read_text() == (out_b / name).read_text()


# ---------------------------------------------------------------------------
# bench exhibit
# ---------------------------------------------------------------------------


def test_bench_fuzz_exhibit_rows_and_determinism():
    from repro.bench.experiments import fuzz_explore

    rows = fuzz_explore.run(60, n_seeds=1, targets=("patree", "lsm"))
    assert [row["target"] for row in rows] == ["patree", "lsm"]
    assert all(row["verdict"] == "ok" for row in rows)
    assert rows == fuzz_explore.run(60, n_seeds=1, targets=("patree", "lsm"))
    # --seed picks the first explored seed; the default starts at 1
    assert [row["seed"] for row in rows] == [1, 1]
    shifted = fuzz_explore.run(60, seed=4, n_seeds=2, targets=("lsm",))
    assert [row["seed"] for row in shifted] == [4, 5]
    lines = []
    fuzz_explore.render(rows, lines.append)
    assert any("0 failure(s)" in line for line in lines)
