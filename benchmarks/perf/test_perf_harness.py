"""Self-test of the perf harness (``pytest benchmarks/perf -q``).

Not collected by tier-1 (``testpaths = ["tests"]``).  Everything runs
at ``--smoke`` sizes, so the numbers mean nothing; what is checked is
the contract: names and units, the final JSON line, determinism of the
virtual clock, layer-map drift, the output check's teeth, and
``compare``'s verdicts.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.perf import checks, compare, progress
from benchmarks.perf.sources import DueTimeSource
from repro.core.ops import search_op, update_op
from repro.sim.rng import RngRegistry
from repro.workloads import payload_for, preload_key

RUN = os.path.join(HERE, "run.py")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    CONTRACT = json.load(_handle)
WORKLOADS = [workload["name"] for workload in CONTRACT["workloads"]]


def run_harness(*args, cwd=ROOT, script=RUN):
    done = subprocess.run(
        [sys.executable, script, *args], cwd=cwd, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=170,
    )
    return done


def last_json(done):
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "untraced.json"
    done = run_harness("--smoke", "--seed", "1", "--out", str(out))
    assert done.returncode == 0, done.stderr
    with open(out) as handle:
        return done, json.load(handle), str(out)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "traced.json"
    done = run_harness("--smoke", "--seed", "1", "--trace", "--out", str(out))
    assert done.returncode == 0, done.stderr
    with open(out) as handle:
        return done, json.load(handle)


def test_contract_file_is_within_its_limits():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert CONTRACT["paths"] == ["benchmarks/perf"]
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= CONTRACT["run_seconds"] <= 60
    names = WORKLOADS + [
        metric["name"]
        for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]
    ]
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME_RE.match(name), name
    for workload in CONTRACT["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in CONTRACT["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in CONTRACT["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT_RE.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert len(CONTRACT["per_layer"]) <= 128


@pytest.mark.parametrize("kind", ["untraced", "traced"])
def test_every_declared_metric_is_reported_and_vice_versa(kind, request):
    done, _document = request.getfixturevalue(kind)[:2]
    declared = CONTRACT["per_layer" if kind == "traced" else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    summary = last_json(done)
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True and summary["failed"] == 0
    assert summary["attempted"] >= 1
    assert set(summary["metrics"]) == set(WORKLOADS)
    for name in WORKLOADS:
        reported = summary["metrics"][name]
        assert set(reported) == set(units), name
        for metric, entry in reported.items():
            assert entry["unit"] == units[metric]
            assert isinstance(entry["value"], (int, float))
            # ... and printed by name with its unit in the readable part
            assert re.search(
                r"^\s+%s\s+\S+ %s$" % (re.escape(metric), re.escape(entry["unit"])),
                done.stdout, re.M,
            ), metric


def test_end_to_end_metrics_are_never_zero_at_full_size():
    # smoke streams are too short for every counter to tick, so this
    # reads the committed full-size run
    with open(os.path.join(HERE, "baseline.json")) as handle:
        document = json.load(handle)["untraced"]
    assert set(document["workloads"]) == set(WORKLOADS)
    for name, result in document["workloads"].items():
        for metric in CONTRACT["end_to_end"]:
            assert result["values"][metric["name"]] > 0, (name, metric)


def test_virtual_clock_repeats_exactly(untraced, traced):
    _done, plain, _path = untraced
    _done, profiled = traced
    for name in WORKLOADS:
        result = plain["workloads"][name]
        assert result["repeats"] >= 2
        for metric, runs in result["runs"].items():
            if metric.startswith("sim_") or metric == "events_per_op":
                assert len(set(runs)) == 1, (name, metric, runs)
        # a second, independent invocation (here: the traced one, which
        # also observes under cProfile) reads the same virtual time
        assert profiled["workloads"][name]["sim_digest"] == result["sim_digest"]


def test_profile_lands_in_modules_listed_in_layers_toml(traced):
    _done, document = traced
    for name, result in document["workloads"].items():
        values = result["values"]
        repro_s = sum(
            value for metric, value in values.items()
            if metric.startswith("host_self_s.")
            and metric.rpartition(".")[2] not in ("stdlib_builtins", "harness")
        ) + result["unreported_repro_s"] + result["unmapped_repro_s"]
        # drift: a repro.* module missing from layers.toml fails here
        assert result["unmapped_repro_s"] <= 0.01 * repro_s, name
        total = sum(
            value for metric, value in values.items()
            if metric.startswith("host_self_s.")
        )
        assert abs(total - result["timed_s"]["traced"]) <= (
            0.02 * result["timed_s"]["traced"]
        ), name
        assert values["trace_overhead_ratio"] > 1.0


def test_single_workload_invocation_has_the_contract_shape():
    done = run_harness(
        "--workload", "batch256_mixed", "--seed", "3", "--seconds", "1",
        "--trace", "0", "--smoke",
    )
    assert done.returncode == 0, done.stderr
    summary = last_json(done)
    assert set(summary["metrics"]) == {
        metric["name"] for metric in CONTRACT["end_to_end"]
    }
    assert summary["correct"] is True


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "perf",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    script = str(tmp_path / "benchmarks" / "perf" / "run.py")
    done = run_harness(
        "--workload", "ycsb_unbuffered", "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=str(tmp_path), script=script,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_compare_file_against_itself_is_all_within(untraced, capsys):
    _done, _document, path = untraced
    assert compare.main([path, path]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert len(rows) == len(WORKLOADS) * len(CONTRACT["end_to_end"])
    for row in rows:
        assert row.endswith("same"), row
        # a host row may only be unresolved, and only because three
        # smoke repeats of a sub-second phase spread wider than its bound
        exact = " sim_" in row or " events_per_op " in row
        assert " within " in row or (not exact and " unresolved " in row), row


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5]
    assert compare.verdict(steady, [100.2, 100.1, 99.9], "lower", 0.1) == "within"
    assert compare.verdict(steady, [120.0, 121.0, 119.0], "lower", 0.1) == "regressed"
    assert compare.verdict(steady, [80.0, 81.0, 79.0], "lower", 0.1) == "improved"
    assert compare.verdict(steady, [80.0, 81.0, 79.0], "higher", 0.1) == "regressed"
    noisy = [100.0, 140.0, 70.0, 120.0]
    assert compare.verdict(noisy, [100.0, 90.0, 110.0], "lower", 0.1) == "unresolved"
    assert compare.verdict(noisy, [50.0, 55.0, 60.0], "lower", 0.1) == "improved"


def _samples(slowness_at, events=40_000, events_per_s=10_000.0, seen=1.0):
    """What ProgressSampler would record on a host ``slowness_at(event)``
    times slower than the reference; the calibration sees ``seen`` of it."""
    now, done = 0.0, 0
    out = [(now, done, progress.CALIBRATION_REFERENCE_S)]
    while done < events:
        slowness = slowness_at(done)
        step = min(events - done, int(200 / slowness))
        done += step
        now += step * slowness / events_per_s
        calibration_s = progress.CALIBRATION_REFERENCE_S * (
            1.0 + (slowness - 1.0) * seen
        )
        out.append((now, done, calibration_s))
    return out


def test_steady_seconds_takes_out_spells_and_bursts():
    quiet = _samples(lambda event: 1.0)
    both, each = progress.steady_seconds([quiet, quiet])
    assert both == pytest.approx(4.0) and each == pytest.approx([4.0, 4.0])
    # a spell: the whole repeat 1.3x slower, and the calibration with it
    spell = _samples(lambda event: 1.3)
    assert spell[-1][0] == pytest.approx(5.2, rel=0.01)
    both, each = progress.steady_seconds([spell, spell])
    assert both == pytest.approx(4.0, rel=0.01)
    # bursts the calibration missed, in different places of two repeats:
    # each repeat alone reads slow, the fastest-per-slice sum does not
    early = _samples(lambda event: 2.0 if event < 10_000 else 1.0, seen=0.0)
    late = _samples(lambda event: 2.0 if event >= 30_000 else 1.0, seen=0.0)
    both, each = progress.steady_seconds([early, late])
    assert each == pytest.approx([5.0, 5.0], rel=0.01)
    assert both == pytest.approx(4.0, rel=0.02)
    with pytest.raises(ValueError):
        progress.steady_seconds([quiet, _samples(lambda event: 1.0, events=30_000)])


def test_due_time_source_admits_by_schedule():
    operations = [search_op(preload_key(index)) for index in range(50)]
    source = DueTimeSource(operations, 40_000, RngRegistry(1).stream("arrival"))
    assert source.due_ns == sorted(source.due_ns) and source.due_ns[0] > 0
    assert source.poll(source.due_ns[0] - 1) == []
    assert source.next_event_ns(0) == source.due_ns[0]
    first = source.poll(source.due_ns[9])
    assert first == operations[:10] and not source.exhausted()
    rest = source.poll(source.due_ns[-1])
    assert first + rest == operations and source.next_event_ns(0) is None
    for op in operations:
        op.done_ns = source.due_ns[-1]
        source.on_op_complete(op)
    assert source.exhausted() and source.backlog_at_last_arrival() == 0


def test_open_loop_check_fails_a_growing_backlog():
    operations = [search_op(preload_key(index)) for index in range(400)]
    source = DueTimeSource(operations, 40_000, RngRegistry(1).stream("arrival"))
    source.poll(source.due_ns[-1])
    for index, op in enumerate(operations):
        # the system completes at a third of the offered rate
        op.done_ns = source.due_ns[0] + 3 * (source.due_ns[index] - source.due_ns[0]) + 1
        source.on_op_complete(op)
    failures = checks.Failures()
    checks.check_open_loop(source, failures)
    assert failures.count == 1 and "fell behind" in failures.messages[0]


def _fake_rig(operations, preload):
    return SimpleNamespace(operations=operations, preload=preload, kind="ycsb")


def test_output_check_has_teeth():
    key = preload_key(0)
    preload = {key: payload_for(key)}
    write = update_op(key, checks.updated_payload(key))
    write.admit_ns, write.done_ns, write.result = 10, 20, True
    stale = search_op(key)  # admitted after the update finished
    stale.admit_ns, stale.done_ns, stale.result = 30, 40, payload_for(key)
    failures = checks.Failures()
    media = [(key, checks.updated_payload(key))]
    checks.check_ycsb(_fake_rig([write, stale], preload), media, failures)
    assert failures.count == 1 and "get(" in failures.messages[0]

    fresh = search_op(key)
    fresh.admit_ns, fresh.done_ns, fresh.result = 30, 40, checks.updated_payload(key)
    failures = checks.Failures()
    checks.check_ycsb(_fake_rig([write, fresh], preload), media, failures)
    assert failures.count == 0

    failures = checks.Failures()
    lost = [(key, payload_for(key))]  # the update never reached the media
    checks.check_ycsb(_fake_rig([write, fresh], preload), lost, failures)
    assert failures.count == 1 and "stored as" in failures.messages[0]
