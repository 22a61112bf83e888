"""Tests for the benchmark harness: reporting, runner, CLI."""

import importlib
import inspect
import json
import pkgutil

import pytest

from repro.bench import experiments
from repro.bench.cli import _EXHIBITS, main as cli_main
from repro.bench.report import format_value, print_series, print_table
from repro.bench.runner import WorkloadSpec, _interleave_syncs, run_pa, run_sync_baseline
from repro.core.ops import SYNC, search_op, update_op
from repro.errors import BenchmarkError
from repro.nvme.device import fast_test_profile
from repro.sim.rng import RngRegistry


class TestReport:
    def test_format_value(self):
        assert format_value(0.0) == "0"
        assert format_value(12345.6) == "12346"
        assert format_value(12.34) == "12.3"
        assert format_value(1.2345) == "1.234"
        assert format_value("text") == "text"
        assert format_value(7) == "7"

    def test_print_table_alignment(self):
        lines = []
        print_table(
            "T",
            [("name", "n"), ("value", "v")],
            [{"n": "alpha", "v": 1.5}, {"n": "b", "v": 22222.0}],
            out=lines.append,
        )
        assert any("== T ==" in line for line in lines)
        header = next(line for line in lines if line.startswith("name"))
        row = next(line for line in lines if line.startswith("alpha"))
        assert header.index("value") == row.index("1.500")

    def test_print_table_missing_key_blank(self):
        lines = []
        print_table("T", [("a", "a"), ("b", "b")], [{"a": 1}], out=lines.append)
        assert any(line.startswith("1") for line in lines)

    def test_print_series(self):
        lines = []
        print_series(
            "S", "x", [1, 2], {"y1": [10, 20], "y2": [30, 40]}, out=lines.append
        )
        body = "\n".join(lines)
        assert "y1" in body and "40" in body


class TestWorkloadSpec:
    def test_builds_each_kind(self):
        rng = RngRegistry(1).stream("x")
        for kind in ("ycsb", "tdrive", "sse"):
            spec = WorkloadSpec(kind=kind, n_keys=100, n_ops=10, n_actors=5)
            workload = spec.build(rng)
            assert workload.preload_items()
            assert list(workload.operations())

    def test_unknown_kind_rejected(self):
        rng = RngRegistry(1).stream("x")
        with pytest.raises(BenchmarkError):
            WorkloadSpec(kind="nope").build(rng)

    def test_interleave_syncs(self):
        ops = [update_op(1, bytes(8)) for _ in range(5)] + [search_op(1)]
        result = list(_interleave_syncs(iter(ops), sync_every=2))
        kinds = [op.kind for op in result]
        assert kinds.count(SYNC) == 2
        assert kinds[2] == SYNC and kinds[5] == SYNC


class TestRunnerSmoke:
    def test_run_pa_small(self):
        spec = WorkloadSpec(kind="ycsb", n_keys=300, n_ops=60, mix="default")
        row = run_pa(
            spec,
            seed=3,
            scheduler="naive",
            device_profile=fast_test_profile(),
        )
        assert row["completed"] == 60
        assert row["throughput_ops"] > 0
        assert row["approach"] == "pa-tree"
        assert 0 <= row["cpu_breakdown"]["real_work"] <= 1

    def test_run_pa_weak_with_syncs(self):
        spec = WorkloadSpec(
            kind="ycsb", n_keys=300, n_ops=60, mix="update_heavy", sync_every=10
        )
        row = run_pa(
            spec,
            seed=3,
            scheduler="naive",
            persistence="weak",
            buffer_pages=128,
            device_profile=fast_test_profile(),
        )
        assert row["completed"] == 60  # sync ops excluded from the count

    def test_run_baseline_small(self):
        spec = WorkloadSpec(kind="ycsb", n_keys=300, n_ops=40, mix="default")
        row = run_sync_baseline(
            spec, "dedicated", 4, seed=3, device_profile=fast_test_profile()
        )
        assert row["completed"] == 40
        assert row["threads"] == 4

    def test_run_baseline_unknown_mode(self):
        spec = WorkloadSpec(kind="ycsb", n_keys=10, n_ops=1)
        with pytest.raises(BenchmarkError):
            run_sync_baseline(spec, "bogus", 1)

    def test_run_pa_unknown_scheduler(self):
        spec = WorkloadSpec(kind="ycsb", n_keys=10, n_ops=1)
        with pytest.raises(BenchmarkError):
            run_pa(spec, scheduler="bogus")


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        captured = capsys.readouterr().out
        assert "fig15" in captured and "table1" in captured

    def test_unknown_exhibit_errors(self):
        with pytest.raises(SystemExit):
            cli_main(["figure-nine-thousand"])

    @pytest.fixture(scope="class")
    def fig11_runs(self, tmp_path_factory):
        """``fig11`` at four (ops, seed) points; the first one twice."""
        root = tmp_path_factory.mktemp("fig11")
        runs = {}
        for label, ops, seed in (
            ("a", 60, 2), ("b", 60, 2), ("seed3", 60, 3), ("ops90", 90, 2),
        ):
            out = root / label
            argv = ["fig11", "--ops", str(ops), "--seed", str(seed)]
            assert cli_main(argv + ["--out", str(out)]) == 0
            runs[label] = out
        return runs

    def test_ops_and_seed_reach_the_exhibit(self, fig11_runs):
        table = {
            label: (out / "fig11.txt").read_text()
            for label, out in fig11_runs.items()
        }
        assert table["a"] != table["seed3"]
        assert table["a"] != table["ops90"]

    def test_exhibit_artifacts_present_deterministic_and_loadable(self, fig11_runs):
        first, second = fig11_runs["a"], fig11_runs["b"]
        assert sorted(p.name for p in first.iterdir()) == [
            "BENCH_fig11.json", "fig11.txt",
        ]
        for name in ("BENCH_fig11.json", "fig11.txt"):
            assert (first / name).read_bytes() == (second / name).read_bytes()
        rows = json.loads((first / "BENCH_fig11.json").read_text())
        assert [row["variant"] for row in rows] == [
            "PA-Tree", "PAD-Tree", "PAD+-Tree",
        ]
        assert all(row["completed"] == 60 for row in rows)

    def test_time_based_exhibit_refuses_ops(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["fig3", "--ops", "5"])
        assert exit_info.value.code != 0
        assert "time-based" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["batch", "--ops", "0"], ["fig10", "--ops", "-5"],
         ["trace", "palsm", "--ops", "0"], ["metrics", "faults", "--ops", "-1"]],
        ids=["batch", "fig10", "trace", "metrics"],
    )
    def test_sizes_below_one_are_usage_errors(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(argv + ["--out", str(tmp_path)])
        assert exit_info.value.code == 2
        assert "at least 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_nothing_is_written_without_out(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli_main(["batch", "--ops", "64"]) == 0
        assert list(tmp_path.iterdir()) == []
        for label in ("a", "b"):
            assert cli_main(["batch", "--ops", "64", "--out", label]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "b"]
        for name in ("BENCH_batch.json", "batch.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()
        assert sorted(p.name for p in (tmp_path / "a").iterdir()) == [
            "BENCH_batch.json", "batch.txt",
        ]


class TestExhibitContract:
    """Every ``cli._EXHIBITS`` entry keeps the one run/render contract."""

    @pytest.mark.parametrize("name", sorted(_EXHIBITS))
    def test_table_entry(self, name):
        title, module, render = _EXHIBITS[name]
        assert title and isinstance(module.TITLE, str)
        assert hasattr(module, "OPS")
        parameters = inspect.signature(module.run).parameters
        assert list(parameters)[:2] == ["ops", "seed"]
        assert parameters["ops"].default == module.OPS
        assert isinstance(parameters["seed"].default, int)
        assert callable(render)
        assert list(inspect.signature(render).parameters)[:2] == ["rows", "out"]

    def test_no_exhibit_function_persists(self):
        for info in pkgutil.iter_modules(experiments.__path__):
            module = importlib.import_module(
                "%s.%s" % (experiments.__name__, info.name)
            )
            for _name, fn in inspect.getmembers(module, inspect.isfunction):
                assert "json_dir" not in inspect.signature(fn).parameters
