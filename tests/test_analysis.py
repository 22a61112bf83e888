"""Tests for patlint (tools.analysis): rules, framework, CLI, shim.

Each rule gets inline fixture snippets for the positive, negative and
suppressed cases; the framework tests cover scoping, suppressions and
reporters.  That the repository itself analyzes clean is pinned in
``tests/test_analysis_graph.py``: every run applies every per-file rule
before the graph rules.  Host-clock reads are PA510's, a graph rule, so
their fixtures live there too.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if REPO_ROOT not in sys.path:
    sys.path.insert(0, REPO_ROOT)

from tools.analysis import analyze
from tools.analysis.cli import main as patlint_main


def run_snippet(tmp_path, code, scope="src", filename="mod.py"):
    # ``filename`` may carry subdirectories (path-scoped rules such as
    # PA407 key on segments like repro/fuzz/)
    target = tmp_path / scope / filename
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(code))
    return analyze([str(target)]).findings


def codes(findings):
    return [finding.code for finding in findings]


# ---------------------------------------------------------------------------
# PA1xx determinism
# ---------------------------------------------------------------------------


def test_pa102_module_level_random(tmp_path):
    findings = run_snippet(
        tmp_path,
        """
        import random

        def draw():
            return random.randint(0, 7)
        """,
    )
    assert codes(findings) == ["PA102"]


def test_pa102_urandom_and_uuid(tmp_path):
    findings = run_snippet(
        tmp_path,
        """
        import os
        import uuid

        def token():
            return os.urandom(8), uuid.uuid4()
        """,
    )
    assert codes(findings) == ["PA102", "PA102"]


def test_pa102_allows_seeded_random_instances(tmp_path):
    findings = run_snippet(
        tmp_path,
        """
        import random

        def stream(seed):
            return random.Random(seed)
        """,
    )
    assert findings == []


def test_pa103_sort_keyed_on_id(tmp_path):
    findings = run_snippet(
        tmp_path,
        """
        def order(nodes):
            return sorted(nodes, key=id)

        def order_lambda(nodes):
            nodes.sort(key=lambda node: id(node))
        """,
    )
    assert codes(findings) == ["PA103", "PA103"]


def test_pa103_negative_stable_key(tmp_path):
    findings = run_snippet(
        tmp_path,
        """
        def order(nodes):
            return sorted(nodes, key=lambda node: node.page_id)
        """,
    )
    assert findings == []


def test_pa110_set_iteration(tmp_path):
    findings = run_snippet(
        tmp_path,
        """
        def emit(counts):
            return [key for key in set(counts)]
        """,
    )
    assert codes(findings) == ["PA110"]


def test_pa110_for_loop_over_set_literal(tmp_path):
    findings = run_snippet(
        tmp_path,
        """
        def walk():
            for kind in {"read", "write"}:
                yield kind
        """,
    )
    assert codes(findings) == ["PA110"]


def test_pa110_sorted_wrapper_is_clean(tmp_path):
    findings = run_snippet(
        tmp_path,
        """
        def emit(counts):
            return [key for key in sorted(set(counts))]
        """,
    )
    assert findings == []


def test_pa110_emit_context_set_local(tmp_path):
    findings = run_snippet(
        tmp_path,
        """
        class Worker:
            def stats(self):
                pages = set(self._dirty)
                out = {}
                for page in pages:
                    out[page] = 1
                return out
        """,
    )
    assert codes(findings) == ["PA110"]
    assert "'pages'" in findings[0].message


def test_pa110_non_emit_function_local_not_tracked(tmp_path):
    findings = run_snippet(
        tmp_path,
        """
        def prefetch(self):
            pages = set(self._dirty)
            for page in pages:
                self.load(page)
        """,
    )
    assert findings == []


# ---------------------------------------------------------------------------
# PA2xx virtual-time discipline
# ---------------------------------------------------------------------------


def test_pa202_threading_import(tmp_path):
    findings = run_snippet(
        tmp_path,
        """
        import threading
        from concurrent.futures import ThreadPoolExecutor

        def spin():
            return threading.Thread(target=ThreadPoolExecutor)
        """,
    )
    assert codes(findings) == ["PA202", "PA202"]


def test_pa203_asyncio_and_native_async(tmp_path):
    findings = run_snippet(
        tmp_path,
        """
        import asyncio

        async def poll():
            return asyncio.get_event_loop()
        """,
    )
    assert codes(findings) == ["PA203", "PA203"]


# ---------------------------------------------------------------------------
# PA3xx fault-path hygiene
# ---------------------------------------------------------------------------


def test_pa301_bare_except(tmp_path):
    findings = run_snippet(
        tmp_path,
        """
        def probe(driver):
            try:
                return driver.probe()
            except:
                return None
        """,
    )
    assert codes(findings) == ["PA301"]


def test_pa301_named_except_is_clean(tmp_path):
    findings = run_snippet(
        tmp_path,
        """
        def probe(driver):
            try:
                return driver.probe()
            except ValueError:
                return None
        """,
    )
    assert findings == []


def test_pa301_relaxed_in_tests_scope(tmp_path):
    findings = run_snippet(
        tmp_path,
        """
        def probe(driver):
            try:
                return driver.probe()
            except:
                return None
        """,
        scope="tests",
    )
    assert findings == []


def test_pa302_status_string_compare(tmp_path):
    findings = run_snippet(
        tmp_path,
        """
        def ok(command):
            return command.status == "completed"
        """,
    )
    assert codes(findings) == ["PA302"]


def test_pa302_enum_compare_is_clean(tmp_path):
    findings = run_snippet(
        tmp_path,
        """
        from repro.nvme.command import IoStatus

        def ok(command):
            return command.status is IoStatus.SUCCESS
        """,
    )
    assert findings == []


def test_pa303_non_exhaustive_dispatch(tmp_path):
    findings = run_snippet(
        tmp_path,
        """
        from repro.nvme.command import IoStatus

        def classify(completion):
            if completion.status is IoStatus.SUCCESS:
                return "ok"
            elif completion.status is IoStatus.MEDIA_ERROR:
                return "retry"
        """,
    )
    assert codes(findings) == ["PA303"]
    for member in ("PENDING", "SUBMITTED", "UNRECOVERED_READ"):
        assert member in findings[0].message


def test_pa303_exhaustive_dispatch_is_clean(tmp_path):
    findings = run_snippet(
        tmp_path,
        """
        from repro.nvme.command import IoStatus

        def classify(completion):
            if completion.status is IoStatus.SUCCESS:
                return "ok"
            elif completion.status is IoStatus.MEDIA_ERROR:
                return "retry"
            elif completion.status in (
                IoStatus.PENDING,
                IoStatus.SUBMITTED,
                IoStatus.UNRECOVERED_READ,
            ):
                return "other"
        """,
    )
    assert findings == []


def test_pa303_else_arm_is_clean(tmp_path):
    findings = run_snippet(
        tmp_path,
        """
        from repro.nvme.command import IoStatus

        def classify(completion):
            if completion.status is IoStatus.SUCCESS:
                return "ok"
            elif completion.status is IoStatus.MEDIA_ERROR:
                return "retry"
            else:
                return "other"
        """,
    )
    assert findings == []


def test_pa303_single_if_guard_is_clean(tmp_path):
    findings = run_snippet(
        tmp_path,
        """
        from repro.nvme.command import IoStatus

        def guard(completion):
            if completion.status is IoStatus.MEDIA_ERROR:
                return "retry"
        """,
    )
    assert findings == []


def test_pa303_mixed_chain_is_clean(tmp_path):
    findings = run_snippet(
        tmp_path,
        """
        from repro.nvme.command import IoStatus

        def classify(completion, deadline):
            if completion.status is IoStatus.SUCCESS:
                return "ok"
            elif deadline.expired:
                return "late"
        """,
    )
    assert findings == []


def test_pa303_uses_members_from_analyzed_class(tmp_path):
    # the fixture defines its own (smaller) IoStatus, so the members
    # are read from it: the two-arm chain is exhaustive.
    findings = run_snippet(
        tmp_path,
        """
        import enum

        class IoStatus(enum.Enum):
            OK = "ok"
            BAD = "bad"

        def classify(completion):
            if completion.status is IoStatus.OK:
                return "ok"
            elif completion.status is IoStatus.BAD:
                return "bad"
        """,
    )
    assert findings == []



# ---------------------------------------------------------------------------
# PA4xx API contracts
# ---------------------------------------------------------------------------


def test_pa401_stats_by_reference(tmp_path):
    findings = run_snippet(
        tmp_path,
        """
        class Worker:
            def stats(self):
                return self._stats
        """,
    )
    assert codes(findings) == ["PA401"]


def test_pa401_fresh_copy_is_clean(tmp_path):
    findings = run_snippet(
        tmp_path,
        """
        class Worker:
            def stats(self):
                return dict(self._stats)

            def snapshot(self):
                return {"completed": self._completed}
        """,
    )
    assert findings == []


def test_pa401_only_stats_style_names(tmp_path):
    findings = run_snippet(
        tmp_path,
        """
        class Worker:
            def raw_handle(self):
                return self._stats
        """,
    )
    assert findings == []


def test_pa402_unused_import_full_dotted_name(tmp_path):
    findings = run_snippet(
        tmp_path,
        """
        import os.path

        VALUE = 1
        """,
    )
    assert codes(findings) == ["PA402"]
    assert "'os.path'" in findings[0].message


def test_pa402_submodule_import_used_via_root(tmp_path):
    findings = run_snippet(
        tmp_path,
        """
        import os.path

        def join(a, b):
            return os.path.join(a, b)
        """,
    )
    assert findings == []


def test_pa402_string_annotation_counts_as_use(tmp_path):
    findings = run_snippet(
        tmp_path,
        """
        from typing import TYPE_CHECKING

        if TYPE_CHECKING:
            from repro.nvme.command import Completion

        def handle(completion: "Completion") -> "Completion":
            return completion
        """,
    )
    assert findings == []


def test_pa402_nested_string_annotation_counts_as_use(tmp_path):
    findings = run_snippet(
        tmp_path,
        """
        from typing import Optional, TYPE_CHECKING

        if TYPE_CHECKING:
            from repro.faults import FaultConfig

        def configure(config: Optional["FaultConfig"] = None):
            return config
        """,
    )
    assert findings == []


def test_pa402_assignment_does_not_count_as_use(tmp_path):
    findings = run_snippet(
        tmp_path,
        """
        from os import sep

        sep = "/"
        """,
    )
    assert codes(findings) == ["PA402"]


def test_pa402_dunder_all_counts_as_use(tmp_path):
    findings = run_snippet(
        tmp_path,
        """
        from os import sep

        __all__ = ["sep"]
        """,
    )
    assert findings == []


def test_pa402_init_module_exempt(tmp_path):
    findings = run_snippet(
        tmp_path,
        """
        from os import sep
        """,
        filename="__init__.py",
    )
    assert findings == []


def test_pa402_applies_in_tests_scope(tmp_path):
    findings = run_snippet(
        tmp_path,
        """
        import os

        VALUE = 1
        """,
        scope="tests",
    )
    assert codes(findings) == ["PA402"]


def test_pa404_print_and_stream_writes(tmp_path):
    findings = run_snippet(
        tmp_path,
        """
        import sys


        def report(rows):
            print(rows)
            sys.stderr.write("boom")
            sys.stdout.write("ok")
        """,
    )
    assert codes(findings) == ["PA404", "PA404", "PA404"]
    assert "print()" in findings[0].message


def test_pa404_out_callable_default_is_clean(tmp_path):
    # the repo's CLI idiom: a Name reference to print is not a call
    findings = run_snippet(
        tmp_path,
        """
        def report(rows, out=print):
            for row in rows:
                out(row)
        """,
    )
    assert findings == []


def test_pa404_only_in_src_scope(tmp_path):
    findings = run_snippet(
        tmp_path,
        """
        def show(value):
            print(value)
        """,
        scope="tests",
    )
    assert findings == []


def test_pa404_suppressible(tmp_path):
    findings = run_snippet(
        tmp_path,
        """
        def show(value):
            print(value)  # patlint: ignore[PA404]
        """,
    )
    assert findings == []


def test_pa406_per_element_loop_over_scalar_helper(tmp_path):
    findings = run_snippet(
        tmp_path,
        """
        def apply_group(leaf, changes):
            for key, payload in changes:
                leaf.leaf_insert(key, payload)
        """,
    )
    assert codes(findings) == ["PA406"]
    assert "leaf_apply_many" in findings[0].message


def test_pa406_lookup_loop_and_innermost_only(tmp_path):
    # nested fors report once, against the loop actually iterating
    findings = run_snippet(
        tmp_path,
        """
        def read_groups(leaf, groups):
            out = []
            for group in groups:
                for key in group:
                    out.append(leaf.leaf_lookup(key))
            return out
        """,
    )
    assert codes(findings) == ["PA406"]
    assert "leaf_lookup_many" in findings[0].message


def test_pa406_negative_vectorized_and_straight_line(tmp_path):
    # vectorized calls, straight-line scalar calls and while-loop
    # descents are all fine
    findings = run_snippet(
        tmp_path,
        """
        def ok(leaf, keys, changes):
            values = leaf.leaf_lookup_many(keys)
            leaf.leaf_apply_many(changes)
            single = leaf.leaf_lookup(keys[0])
            while keys:
                single = leaf.leaf_delete(keys.pop())
            return values, single
        """,
    )
    assert findings == []


def test_pa406_loop_iter_evaluated_once_is_clean(tmp_path):
    # the iterable expression runs once, not per element
    findings = run_snippet(
        tmp_path,
        """
        def ok(leaf, keys):
            for value in leaf.leaf_lookup_many(keys):
                yield value
        """,
    )
    assert findings == []


def test_pa406_only_in_src_scope(tmp_path):
    findings = run_snippet(
        tmp_path,
        """
        def oracle(leaf, keys):
            out = []
            for key in keys:
                out.append(leaf.leaf_lookup(key))
            return out
        """,
        scope="tests",
    )
    assert findings == []


def test_pa406_suppressible(tmp_path):
    findings = run_snippet(
        tmp_path,
        """
        def apply_group(leaf, changes):
            for key, payload in changes:
                leaf.leaf_insert(key, payload)  # patlint: ignore[PA406]
        """,
    )
    assert findings == []


# ---------------------------------------------------------------------------
# PA407 schedule-fuzzing RNG discipline (slot defaults are PA530's)
# ---------------------------------------------------------------------------


def test_pa407_private_random_in_fuzz_package(tmp_path):
    findings = run_snippet(
        tmp_path,
        """
        import random


        def make_explorer(seed):
            return random.Random(seed)
        """,
        filename="repro/fuzz/hooks.py",
    )
    assert codes(findings) == ["PA407"]


def test_pa407_private_random_at_hook_site(tmp_path):
    findings = run_snippet(
        tmp_path,
        """
        import random


        class SimOS:
            def __init__(self):
                self.jitter = random.Random(7)
        """,
        filename="repro/simos/scheduler.py",
    )
    assert codes(findings) == ["PA407"]


def test_pa407_registry_stream_is_clean(tmp_path):
    findings = run_snippet(
        tmp_path,
        """
        def make_explorer(registry):
            return registry.stream("fuzz:schedule")
        """,
        filename="repro/fuzz/hooks.py",
    )
    assert findings == []


def test_pa407_random_elsewhere_in_src_not_flagged(tmp_path):
    # random.Random construction outside fuzz/hook-site files is the
    # RngRegistry's own business (PA102 already polices ambient use)
    findings = run_snippet(
        tmp_path,
        """
        import random


        def stream(seed):
            return random.Random(seed)
        """,
        filename="repro/sim/rng.py",
    )
    assert findings == []


def test_pa407_hook_null_default_is_clean(tmp_path):
    findings = run_snippet(
        tmp_path,
        """
        class NvmeDevice:
            def __init__(self):
                self.perturb_service = None
                self.on_submit = ()
        """,
        filename="repro/nvme/device.py",
    )
    assert findings == []


def test_pa407_fuzz_binder_assignment_is_exempt(tmp_path):
    # PA407 polices randomness only: who may bind a slot is PA530
    findings = run_snippet(
        tmp_path,
        """
        def bind(simos, decider):
            simos.pick_runnable = lambda queue: decider.pick(len(queue))
        """,
        filename="repro/fuzz/hooks.py",
    )
    assert findings == []


def test_pa407_suppressible(tmp_path):
    findings = run_snippet(
        tmp_path,
        """
        import random


        def draw():
            return random.Random(0)  # patlint: ignore[PA407]
        """,
        filename="repro/fuzz/harness.py",
    )
    assert findings == []


# ---------------------------------------------------------------------------
# framework: suppressions, parse failures, reporters
# ---------------------------------------------------------------------------


def test_pa901_stale_suppression(tmp_path):
    findings = run_snippet(
        tmp_path,
        """
        def clean():
            return 1  # patlint: ignore[PA510]
        """,
    )
    assert codes(findings) == ["PA901"]
    assert "PA510" in findings[0].message


def test_pa901_malformed_pragma(tmp_path):
    findings = run_snippet(
        tmp_path,
        """
        def clean():
            return 1  # patlint: ignore everything
        """,
    )
    assert codes(findings) == ["PA901"]


def test_suppression_covers_only_named_codes(tmp_path):
    findings = run_snippet(
        tmp_path,
        """
        import time

        def now():
            return time.sleep(1)  # patlint: ignore[PA102]
        """,
        filename="repro/core/mod.py",
    )
    # time.sleep is PA510; the PA102 pragma silences nothing -> stale.
    assert sorted(codes(findings)) == ["PA510", "PA901"]


def test_multi_code_suppression(tmp_path):
    findings = run_snippet(
        tmp_path,
        """
        import time

        def now():
            return time.time()  # patlint: ignore[PA510, PA999]
        """,
        filename="repro/core/mod.py",
    )
    # PA510 suppressed; the PA999 half matched nothing -> stale.
    assert codes(findings) == ["PA901"]


def test_cli_fails_a_file_that_does_not_parse(tmp_path, capsys):
    target = tmp_path / "src" / "broken.py"
    target.parent.mkdir()
    target.write_text("def broken(:\n    pass\n")
    result = analyze([str(target)])
    assert result.findings == []
    assert result.unparsed == [str(target)]
    assert patlint_main([str(target)]) == 1
    assert "SyntaxError" in capsys.readouterr().out
    # the SARIF render skips byte-compilation; the parse failure still fails
    assert patlint_main([str(target), "--no-compile"]) == 1
    assert "does not parse" in capsys.readouterr().err


def test_cli_exit_codes_for_seeded_violations(tmp_path, capsys):
    bad = tmp_path / "src" / "repro" / "core" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(
        textwrap.dedent(
            """
            import time

            def now():
                return time.time()
            """
        )
    )
    exit_code = patlint_main([str(bad), "--no-compile"])
    out = capsys.readouterr().out
    assert exit_code == 1
    assert "PA510" in out

    good = tmp_path / "src" / "repro" / "core" / "good.py"
    good.write_text("def now(engine):\n    return engine.now\n")
    assert patlint_main([str(good), "--no-compile"]) == 0


def test_cli_json_reporter_schema(tmp_path, capsys):
    bad = tmp_path / "src" / "repro" / "core" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import time\n\n\ndef f():\n    return time.time()\n")
    exit_code = patlint_main([str(bad), "--format", "json", "--no-compile"])
    document = json.loads(capsys.readouterr().out)
    assert exit_code == 1
    assert document["tool"] == "patlint"
    assert document["summary"] == {"files": 1, "findings": 1}
    (finding,) = document["findings"]
    assert finding["code"] == "PA510"
    assert finding["line"] == 5


# ---------------------------------------------------------------------------
# self-checks and the legacy shim
# ---------------------------------------------------------------------------


def test_byte_compile_leaves_no_pycache(tmp_path):
    target = tmp_path / "src" / "clean.py"
    target.parent.mkdir()
    target.write_text("def f(x):\n    return x\n")
    proc = subprocess.run(
        [sys.executable, "-m", "tools.analysis", str(target)],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    litter = [
        os.path.join(dirpath, name)
        for dirpath, dirnames, _files in os.walk(tmp_path)
        for name in dirnames
        if name == "__pycache__"
    ]
    assert litter == []


def test_list_rules_catalog(capsys):
    assert patlint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in (
        "PA102",
        "PA103",
        "PA110",
        "PA202",
        "PA203",
        "PA301",
        "PA302",
        "PA303",
        "PA401",
        "PA402",
        "PA404",
        "PA406",
        "PA407",
        "PA901",
    ):
        assert code in out
    # folded into PA510, gone with the fallback IoStatus list, or the
    # byte-compile pass's
    for code in ("PA101", "PA201", "PA304", "PA902"):
        assert code not in out


@pytest.mark.parametrize(
    "snippet,expected",
    [
        ("import time\n\n\ndef f():\n    return time.time()\n", "PA510"),
        (
            "def stats(c):\n    return [k for k in set(c)]\n",
            "PA110",
        ),
        (
            "def f(d):\n    try:\n        return d.probe()\n"
            "    except:\n        return None\n",
            "PA301",
        ),
        (
            "from repro.nvme.command import IoStatus\n\n\n"
            "def f(c):\n    if c.status is IoStatus.SUCCESS:\n"
            "        return 1\n    elif c.status is IoStatus.MEDIA_ERROR:\n"
            "        return 2\n",
            "PA303",
        ),
    ],
)
def test_seeded_violation_fails_with_expected_code(
    tmp_path, capsys, snippet, expected
):
    """One seeded violation per acceptance rule class exits nonzero."""
    target = tmp_path / "src" / "repro" / "core" / "seeded.py"
    target.parent.mkdir(parents=True)
    target.write_text(snippet)
    exit_code = patlint_main([str(target), "--no-compile"])
    out = capsys.readouterr().out
    assert exit_code == 1
    assert expected in out
