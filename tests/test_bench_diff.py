"""Tests for the bench regression gate (repro.bench.diff) and the
``python -m repro.bench metrics`` health CLI (repro.bench.observe)."""

import json

import pytest

from repro.bench import diff
from repro.bench.observe import main as observe_main, run_observed


# ----------------------------------------------------------------------
# leaf flattening and classification
# ----------------------------------------------------------------------


def test_flatten_walks_nested_dicts_and_lists():
    leaves = diff.flatten(
        {
            "result": {"throughput_ops": 10.5, "name": "x", "ok": True},
            "rows": [{"p99_us": 7}, {"p99_us": 9}],
        }
    )
    assert leaves == {
        "result.throughput_ops": 10.5,
        "rows[0].p99_us": 7,
        "rows[1].p99_us": 9,
    }


@pytest.mark.parametrize(
    "path,direction",
    [
        ("result.p99_latency_us", "lower"),
        ("health.slo.rows[0].violations", "lower"),
        ("result.failed_ops", "lower"),
        ("result.io_errors", "lower"),
        ("result.throughput_ops", "higher"),
        ("result.goodput_ops", "higher"),
        ("result.iops", "higher"),
        ("result.elapsed_s", None),
        ("result.probes", None),
    ],
)
def test_classify_directions(path, direction):
    assert diff.classify(path) == direction


# ----------------------------------------------------------------------
# comparison semantics
# ----------------------------------------------------------------------


def test_identical_payloads_always_pass():
    payload = {"throughput_ops": 100.0, "p99_latency_us": 50.0}
    findings = diff.compare(payload, dict(payload), threshold=0.0)
    assert findings["regressions"] == []
    assert findings["improvements"] == []
    assert findings["drifts"] == []


def test_latency_increase_past_threshold_regresses():
    findings = diff.compare(
        {"p99_latency_us": 100.0}, {"p99_latency_us": 125.0}, threshold=0.10
    )
    assert [r["path"] for r in findings["regressions"]] == ["p99_latency_us"]
    # within threshold: no regression
    ok = diff.compare(
        {"p99_latency_us": 100.0}, {"p99_latency_us": 105.0}, threshold=0.10
    )
    assert ok["regressions"] == []


def test_throughput_drop_past_threshold_regresses():
    findings = diff.compare(
        {"throughput_ops": 100.0}, {"throughput_ops": 80.0}, threshold=0.10
    )
    assert [r["path"] for r in findings["regressions"]] == ["throughput_ops"]
    improved = diff.compare(
        {"throughput_ops": 100.0}, {"throughput_ops": 130.0}, threshold=0.10
    )
    assert improved["regressions"] == []
    assert [r["path"] for r in improved["improvements"]] == ["throughput_ops"]


def test_zero_to_nonzero_error_count_regresses_at_any_threshold():
    findings = diff.compare(
        {"lost_writes": 0}, {"lost_writes": 1}, threshold=5.0
    )
    assert [r["path"] for r in findings["regressions"]] == ["lost_writes"]


def test_unclassified_leaves_drift_but_never_gate():
    findings = diff.compare(
        {"probes": 100}, {"probes": 900}, threshold=0.01
    )
    assert findings["regressions"] == []
    assert [r["path"] for r in findings["drifts"]] == ["probes"]


def test_added_and_removed_keys_reported_not_gated():
    findings = diff.compare({"old_only": 1}, {"new_only": 2}, threshold=0.1)
    assert findings["added"] == ["new_only"]
    assert findings["removed"] == ["old_only"]
    assert findings["regressions"] == []


# ----------------------------------------------------------------------
# wall-clock-variant exclusion (file backend artifacts)
# ----------------------------------------------------------------------


def test_wall_clock_prefixes_found_directly_and_via_backend_key():
    payload = {
        "result": {"backend": {"kind": "file", "wall_clock_variant": True}},
        "calibration": {"wall_clock_variant": True},
        "rows": [{"backend": {"wall_clock_variant": True}}],
    }
    prefixes = diff.wall_clock_prefixes(payload)
    # nested backend descriptors may add redundant sub-prefixes; the
    # contract is that each variant subtree root is covered
    assert {"result", "calibration", "rows[0]"} <= prefixes


def test_wall_clock_variant_subtree_never_gates():
    old = {
        "result": {
            "backend": {"wall_clock_variant": True},
            "p99_latency_us": 100.0,
        },
        "sim": {"p99_latency_us": 50.0},
    }
    new = {
        "result": {
            "backend": {"wall_clock_variant": True},
            "p99_latency_us": 900.0,  # wild wall-clock swing: not gated
        },
        "sim": {"p99_latency_us": 50.0},
    }
    findings = diff.compare(old, new, threshold=0.05)
    assert findings["regressions"] == []
    assert [r["path"] for r in findings["wall_clock"]] == [
        "result.p99_latency_us"
    ]


def test_sim_leaves_still_gate_next_to_wall_clock_subtrees():
    old = {
        "file": {"backend": {"wall_clock_variant": True}, "iops": 10.0},
        "sim": {"p99_latency_us": 50.0},
    }
    new = {
        "file": {"backend": {"wall_clock_variant": True}, "iops": 2.0},
        "sim": {"p99_latency_us": 500.0},
    }
    findings = diff.compare(old, new, threshold=0.05)
    assert [r["path"] for r in findings["regressions"]] == [
        "sim.p99_latency_us"
    ]


# ----------------------------------------------------------------------
# file-level gate and exit codes
# ----------------------------------------------------------------------


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def test_diff_files_pass_and_fail(tmp_path):
    lines = []
    old = _write(tmp_path / "old.json", {"p99_latency_us": 100.0})
    same = _write(tmp_path / "same.json", {"p99_latency_us": 100.0})
    bad = _write(tmp_path / "bad.json", {"p99_latency_us": 300.0})
    assert diff.diff_files(old, same, out=lines.append) == 0
    assert diff.diff_files(old, bad, out=lines.append) == 1
    assert any("REGRESSION" in line for line in lines)


def test_diff_files_usage_errors(tmp_path):
    lines = []
    assert diff.diff_files(None, None, out=lines.append) == 2
    missing = str(tmp_path / "nope.json")
    assert diff.diff_files(missing, missing, out=lines.append) == 2


# ----------------------------------------------------------------------
# metrics health CLI end to end
# ----------------------------------------------------------------------


def test_metrics_cli_writes_artifacts_and_gate_passes(tmp_path):
    lines = []
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    paths_a = run_observed(
        "metrics", "faults", ops=150, seed=1, out_dir=str(out_a), out=lines.append
    )
    paths_b = run_observed(
        "metrics", "faults", ops=150, seed=1, out_dir=str(out_b), out=lines.append
    )
    # postmortem artefact present: the fault config escalates errors
    names = [p.rsplit("/", 1)[-1] for p in paths_a]
    assert "faults.postmortem.json" in names
    assert "BENCH_metrics_faults.json" in names
    # same-seed runs are byte-identical, so the regression gate passes
    for first, second in zip(paths_a, paths_b):
        assert open(first, "rb").read() == open(second, "rb").read()
    bench_a = [p for p in paths_a if p.endswith(".json") and "BENCH" in p][0]
    bench_b = [p for p in paths_b if p.endswith(".json") and "BENCH" in p][0]
    assert diff.diff_files(bench_a, bench_b, out=lines.append) == 0
    assert any("== health: SLO ==" in line for line in lines)


def test_metrics_cli_gate_fails_on_seeded_regression(tmp_path):
    lines = []
    paths = run_observed(
        "metrics", "fig7", ops=120, seed=1, out_dir=str(tmp_path), out=lines.append
    )
    bench = [p for p in paths if "BENCH" in p][0]
    payload = json.loads(open(bench).read())
    payload["result"]["failed_ops"] = (
        payload["result"].get("failed_ops", 0) + 10
    )
    regressed = _write(tmp_path / "regressed.json", payload)
    assert diff.diff_files(bench, regressed, out=lines.append) == 1


def test_metrics_cli_unknown_target_exits_2():
    class _Args:
        target = "nope"
        ops = None
        seed = 1
        out = None

    lines = []
    assert observe_main("metrics", _Args(), out=lines.append) == 2
    assert any("unknown metrics target" in line for line in lines)
