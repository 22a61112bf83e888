"""Tests for patlint v2's whole-program phase (PA5xx) and satellites.

The graph rules see a project-shaped fixture tree (``src/repro/...``
under a tmp dir, matching the real package prefixes so the committed
``layers.toml`` applies), so each rule family gets seeded positive,
negative and suppressed cases; the satellites cover repo-relative
finding paths, the SARIF reporter and Python-3.12-only syntax
degradation.
"""

import ast
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
from tools.analysis.framework import canonical_path
from tools.analysis.projconf import DEFAULT_CONFIG_PATH, _mini_toml


def write_tree(tmp_path, files):
    paths = []
    for relative, code in files.items():
        target = tmp_path / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(code))
        paths.append(str(target))
    return paths


def graph_findings(tmp_path, files):
    return analyze(write_tree(tmp_path, files)).findings


def codes(findings):
    return [finding.code for finding in findings]


# ---------------------------------------------------------------------------
# PA501 layering
# ---------------------------------------------------------------------------


def test_pa501_engine_importing_observability(tmp_path):
    findings = graph_findings(
        tmp_path,
        {
            "src/repro/obs/tracer.py": "TRACER = object()\n",
            "src/repro/core/engine.py": (
                """
                from repro.obs.tracer import TRACER

                def run():
                    return TRACER
                """
            ),
        },
    )
    assert codes(findings) == ["PA501"]
    assert "layer 'engine'" in findings[0].message
    assert "layer 'observability'" in findings[0].message
    assert findings[0].path.endswith("src/repro/core/engine.py")


def test_pa501_downward_and_same_layer_imports_are_clean(tmp_path):
    findings = graph_findings(
        tmp_path,
        {
            "src/repro/sim/clock.py": "NOW = 0\n",
            "src/repro/core/engine.py": (
                """
                from repro.sim.clock import NOW
                from repro.core.latch import TABLE

                def run():
                    return NOW, TABLE
                """
            ),
            "src/repro/core/latch.py": "TABLE = {}\n",
            "src/repro/obs/export.py": (
                """
                from repro.core.engine import run

                def export():
                    return run()
                """
            ),
        },
    )
    assert findings == []


def test_pa501_unmapped_module_is_drift(tmp_path):
    findings = graph_findings(
        tmp_path,
        {"src/repro/brandnew/widget.py": "X = 1\n"},
    )
    assert codes(findings) == ["PA501"]
    assert "not assigned to any layer" in findings[0].message


def test_pa501_suppressible_at_import_line(tmp_path):
    findings = graph_findings(
        tmp_path,
        {
            "src/repro/obs/tracer.py": "TRACER = object()\n",
            "src/repro/core/engine.py": (
                """
                from repro.obs.tracer import TRACER  # patlint: ignore[PA501]

                def run():
                    return TRACER
                """
            ),
        },
    )
    assert findings == []


# ---------------------------------------------------------------------------
# PA502 nvme boundary
# ---------------------------------------------------------------------------


def test_pa502_nvme_internals_outside_backend(tmp_path):
    findings = graph_findings(
        tmp_path,
        {
            "src/repro/sched/probe.py": (
                """
                from repro.nvme.device import i3_nvme_profile

                def profile():
                    return i3_nvme_profile()
                """
            ),
        },
    )
    assert codes(findings) == ["PA502"]
    assert "repro.backend" in findings[0].message


def test_pa502_backend_and_public_contract_are_exempt(tmp_path):
    findings = graph_findings(
        tmp_path,
        {
            "src/repro/backend/base.py": (
                """
                from repro.nvme.device import NvmeDevice

                def make():
                    return NvmeDevice
                """
            ),
            "src/repro/core/engine.py": (
                """
                from repro.nvme.command import IoStatus

                def ok(c):
                    return c is IoStatus
                """
            ),
        },
    )
    assert findings == []


def test_pa502_device_construction_outside_backend(tmp_path):
    """What per-file PA408 used to check: wiring ``NvmeDevice`` /
    ``NvmeDriver`` by hand outside the boundary needs the import, and
    the import is the finding; going through the factory is clean."""
    findings = graph_findings(
        tmp_path,
        {
            "src/repro/bench/machine.py": (
                """
                from repro.nvme.device import NvmeDevice
                from repro.nvme.driver import NvmeDriver

                def build(engine, profile):
                    device = NvmeDevice(engine, profile)
                    return NvmeDriver(device)
                """
            ),
            "src/repro/core/wiring.py": (
                """
                import repro.nvme.device as dev

                def build(engine, profile):
                    return dev.NvmeDevice(engine, profile)
                """
            ),
            "src/repro/sched/factory.py": (
                """
                from repro.backend import make_backend

                def build(engine, profile):
                    return make_backend("sim", engine=engine, profile=profile)
                """
            ),
        },
    )
    assert codes(findings) == ["PA502", "PA502", "PA502"]
    assert [os.path.basename(f.path) for f in findings] == [
        "machine.py", "machine.py", "wiring.py",
    ]


def test_pa502_suppressible_and_tests_are_out_of_scope(tmp_path):
    findings = graph_findings(
        tmp_path,
        {
            "src/repro/sched/special.py": (
                """
                from repro.nvme.device import NvmeDevice  # patlint: ignore[PA502]

                def build(engine, profile):
                    return NvmeDevice(engine, profile)
                """
            ),
            "tests/test_device.py": (
                """
                from repro.nvme.device import NvmeDevice

                def build(engine, profile):
                    return NvmeDevice(engine, profile)
                """
            ),
        },
    )
    assert findings == []


# ---------------------------------------------------------------------------
# PA503 import cycles
# ---------------------------------------------------------------------------


def test_pa503_module_level_cycle(tmp_path):
    findings = graph_findings(
        tmp_path,
        {
            "src/repro/core/a.py": (
                """
                from repro.core import b

                X = b
                """
            ),
            "src/repro/core/b.py": (
                """
                from repro.core import a

                Y = a
                """
            ),
            "src/repro/core/__init__.py": "",
        },
    )
    assert codes(findings) == ["PA503"]
    assert "repro.core.a -> repro.core.b" in findings[0].message


def test_pa503_function_level_import_breaks_cycle(tmp_path):
    findings = graph_findings(
        tmp_path,
        {
            "src/repro/core/a.py": (
                """
                from repro.core import b

                X = b
                """
            ),
            "src/repro/core/b.py": (
                """
                def late():
                    from repro.core import a

                    return a
                """
            ),
            "src/repro/core/__init__.py": "",
        },
    )
    assert findings == []


# ---------------------------------------------------------------------------
# PA510-PA512 wall-clock taint
# ---------------------------------------------------------------------------


def test_pa510_raw_io_source_outside_blessed_module(tmp_path):
    findings = graph_findings(
        tmp_path,
        {
            "src/repro/core/reader.py": (
                """
                import os

                def read(fd, n, off):
                    return os.pread(fd, n, off)
                """
            ),
        },
    )
    assert codes(findings) == ["PA510"]
    assert "os.pread" in findings[0].message


@pytest.mark.parametrize(
    "source, calls",
    [
        pytest.param(
            """
            import time

            def now():
                return time.time()
            """,
            ["time.time"],
            id="direct",
        ),
        pytest.param(
            """
            import time as t
            from time import perf_counter

            def now():
                return t.monotonic() + perf_counter()
            """,
            ["time.monotonic", "time.perf_counter"],
            id="alias-and-from-import",
        ),
        pytest.param(
            """
            from datetime import datetime

            def stamp():
                return datetime.now()
            """,
            ["datetime.datetime.now"],
            id="datetime-now",
        ),
        pytest.param(
            """
            import time

            def wait():
                time.sleep(0.1)
            """,
            ["time.sleep"],
            id="sleep",
        ),
        pytest.param(
            """
            import time

            STARTED = time.perf_counter()

            class Clock:
                BORN = time.time()
            """,
            ["time.perf_counter", "time.time"],
            id="import-time",
        ),
        pytest.param(
            """
            import time

            def outer(flag):
                if flag:
                    def inner():
                        return time.perf_counter()
                    return inner
                class Local:
                    def tick(self):
                        return time.monotonic()
                return Local
            """,
            ["time.perf_counter", "time.monotonic"],
            id="nested-under-if-and-local-class",
        ),
        pytest.param(
            """
            import functools
            import time

            def stamp(started=time.time()):
                return started

            @functools.lru_cache(maxsize=int(time.time_ns()))
            def cached():
                return 0
            """,
            ["time.time", "time.time_ns"],
            id="default-argument-and-decorator",
        ),
        pytest.param(
            """
            import time

            try:
                def now():
                    return time.perf_counter()
            except ImportError:
                now = None
            """,
            ["time.perf_counter"],
            id="def-under-module-try",
        ),
        pytest.param(
            """
            import time

            def now():
                return time.time()  # patlint: ignore[PA510]
            """,
            [],
            id="suppressed",
        ),
    ],
)
def test_pa510_reports_each_wall_clock_source_once(tmp_path, source, calls):
    findings = graph_findings(tmp_path, {"src/repro/core/clock.py": source})
    assert codes(findings) == ["PA510"] * len(calls)
    assert [f.message.split()[2] for f in findings] == calls


@pytest.mark.parametrize(
    "relative, source",
    [
        pytest.param(
            "src/repro/core/clock.py",
            "def now(engine):\n    return engine.now\n",
            id="virtual-clock",
        ),
        pytest.param(
            "tests/test_timing.py",
            "import time\n\n\ndef now():\n    return time.time()\n",
            id="outside-src",
        ),
    ],
)
def test_pa510_negatives_are_clean(tmp_path, relative, source):
    assert graph_findings(tmp_path, {relative: source}) == []


def test_pa511_interprocedural_taint_reaches_sink(tmp_path):
    findings = graph_findings(
        tmp_path,
        {
            "src/repro/core/probe.py": (
                """
                import time

                def measure():
                    return time.perf_counter()  # patlint: ignore[PA510]
                """
            ),
            "src/repro/core/feed.py": (
                """
                from repro.core.probe import measure

                def go(engine):
                    engine.schedule(measure(), None)
                """
            ),
        },
    )
    assert codes(findings) == ["PA511"]
    assert "measure" in findings[0].message
    assert findings[0].path.endswith("feed.py")


_WALL_CLOCK_PROBE = (
    """
    import time

    def measure():
        return time.perf_counter()  # patlint: ignore[PA510]
    """
)


@pytest.mark.parametrize("burst, sink", [
    ("self.simos.cpu(measure(), None) or (yield)", "cpu"),
    ("self.simos.cpu_repeat(measure(), None, 4)", "cpu_repeat"),
    ("self.engine.advance(measure())", "advance"),
    ("self.engine.advance(measure(), 4)", "advance"),
])
def test_pa511_a_burst_call_is_a_sink(tmp_path, burst, sink):
    findings = graph_findings(
        tmp_path,
        {
            "src/repro/core/probe.py": _WALL_CLOCK_PROBE,
            "src/repro/core/feed.py": (
                """
                from repro.core.probe import measure

                class Worker:
                    def body(self):
                        %s
                        yield
                """ % burst
            ),
        },
    )
    assert codes(findings) == ["PA511"]
    assert "sink %s(...)" % sink in findings[0].message


def test_pa511_a_burst_through_a_local_binding_is_a_sink(tmp_path):
    findings = graph_findings(
        tmp_path,
        {
            "src/repro/core/probe.py": _WALL_CLOCK_PROBE,
            "src/repro/core/feed.py": (
                """
                from repro.core.probe import measure

                class Worker:
                    def body(self):
                        cpu = self.simos.cpu
                        while True:
                            cpu(measure(), None) or (yield)
                """
            ),
        },
    )
    assert codes(findings) == ["PA511"]
    assert "sink cpu(...)" in findings[0].message


def test_pa511_blessed_module_sanitizes(tmp_path):
    findings = graph_findings(
        tmp_path,
        {
            "src/repro/backend/file.py": (
                """
                import time

                wall_clock_variant = True

                def measure():
                    return time.perf_counter()
                """
            ),
            "src/repro/core/feed.py": (
                """
                from repro.backend.file import measure

                def go(engine):
                    engine.schedule(measure(), None)
                """
            ),
        },
    )
    assert findings == []


def test_pa512_declaration_blessing_drift(tmp_path):
    findings = graph_findings(
        tmp_path,
        {
            "src/repro/core/rogue.py": (
                """
                wall_clock_variant = True

                def f():
                    return 1
                """
            ),
        },
    )
    assert codes(findings) == ["PA512"]
    assert "not" in findings[0].message and "blessed" in findings[0].message


# ---------------------------------------------------------------------------
# PA520-PA521 latch discipline
# ---------------------------------------------------------------------------

_OPS_STUB = "src/repro/core/ops.py", (
    """
    class LatchEff:
        def __init__(self, page_id, mode):
            self.page_id = page_id
            self.mode = mode

    class UnlatchEff:
        def __init__(self, page_id):
            self.page_id = page_id

    class UnlatchManyEff:
        def __init__(self, page_ids):
            self.page_ids = page_ids

    class ReadEff:
        def __init__(self, page_id):
            self.page_id = page_id

    class CoupleEff:
        def __init__(self, page_id, mode, parent=None):
            self.page_id = page_id
            self.mode = mode
            self.parent = parent
    """
)


def test_pa520_branch_leaks_latch(tmp_path):
    findings = graph_findings(
        tmp_path,
        {
            _OPS_STUB[0]: _OPS_STUB[1],
            "src/repro/core/plans.py": (
                """
                from repro.core.ops import LatchEff, UnlatchEff

                def plan(op, tree):
                    meta = tree.meta_page
                    yield LatchEff(meta, 1)
                    if op.key:
                        yield UnlatchEff(meta)
                        return
                    op.result = None
                """
            ),
        },
    )
    assert codes(findings) == ["PA520"]
    assert "meta" in findings[0].message


def test_pa520_crabbing_descent_is_clean(tmp_path):
    findings = graph_findings(
        tmp_path,
        {
            _OPS_STUB[0]: _OPS_STUB[1],
            "src/repro/core/plans.py": (
                """
                from repro.core.ops import LatchEff, ReadEff, UnlatchEff

                def plan(op, tree):
                    meta = tree.meta_page
                    yield LatchEff(meta, 0)
                    prev = meta
                    page = tree.root
                    while True:
                        yield LatchEff(page, 0)
                        yield UnlatchEff(prev)
                        node = yield ReadEff(page)
                        if node.is_leaf:
                            yield UnlatchEff(node.page_id)
                            return
                        prev = page
                        page = node.child
                """
            ),
        },
    )
    assert findings == []


def test_pa520_step_descent_that_forgets_its_leaf_release(tmp_path):
    """A step's parent release never pairs with its own acquire, so a
    step descent whose leaf branch returns still latched is reported.
    The four-effect spelling of the same leak is not: its
    ``UnlatchEff(prev)`` aliases the child (the gap the step closes)."""
    findings = graph_findings(
        tmp_path,
        {
            _OPS_STUB[0]: _OPS_STUB[1],
            "src/repro/core/plans.py": (
                """
                from repro.core.ops import CoupleEff, LatchEff, ReadEff, UnlatchEff

                def released(op, tree):
                    meta = tree.meta_page
                    yield LatchEff(meta, 0)
                    prev = meta
                    page = tree.root
                    while True:
                        node = yield CoupleEff(page, 0, prev)
                        if node.is_leaf:
                            yield UnlatchEff(node.page_id)
                            return
                        prev = page
                        page = node.child

                def forgetful(op, tree):
                    meta = tree.meta_page
                    yield LatchEff(meta, 0)
                    prev = meta
                    page = tree.root
                    while True:
                        node = yield CoupleEff(page, 0, parent=prev)
                        if node.is_leaf:
                            op.result = node.lookup(op.key)
                            return
                        prev = page
                        page = node.child

                def four_effects(op, tree):
                    meta = tree.meta_page
                    yield LatchEff(meta, 0)
                    prev = meta
                    page = tree.root
                    while True:
                        yield LatchEff(page, 0)
                        yield UnlatchEff(prev)
                        node = yield ReadEff(page)
                        if node.is_leaf:
                            op.result = node.lookup(op.key)
                            return
                        prev = page
                        page = node.child
                """
            ),
        },
    )
    assert codes(findings) == ["PA520"]
    assert "'forgetful'" in findings[0].message
    assert "(page)" in findings[0].message


def test_pa520_ownership_transferring_return_is_clean(tmp_path):
    findings = graph_findings(
        tmp_path,
        {
            _OPS_STUB[0]: _OPS_STUB[1],
            "src/repro/core/plans.py": (
                """
                from repro.core.ops import LatchEff, UnlatchEff

                def descend(op, tree):
                    meta = tree.meta_page
                    yield LatchEff(meta, 1)
                    path = [meta]
                    if op.safe:
                        for held in path:
                            yield UnlatchEff(held)
                        path = [op.page]
                    return path
                """
            ),
        },
    )
    assert findings == []


def test_pa520_follows_a_latched_node_through_yield_from(tmp_path):
    """A shared step returns its leaf still latched: the helper is
    clean, and each caller owes the release of what it was handed."""
    findings = graph_findings(
        tmp_path,
        {
            _OPS_STUB[0]: _OPS_STUB[1],
            "src/repro/core/batch.py": (
                """
                from repro.core.ops import LatchEff, ReadEff, UnlatchEff

                def descend(tree, key):
                    meta = tree.meta_page
                    yield LatchEff(meta, 0)
                    prev = meta
                    page = tree.root
                    while True:
                        yield LatchEff(page, 0)
                        yield UnlatchEff(prev)
                        node = yield ReadEff(page)
                        if node.is_leaf:
                            return node
                        prev = page
                        page = node.child
                """
            ),
            "src/repro/core/plans.py": (
                """
                from repro.core.batch import descend
                from repro.core.ops import UnlatchEff

                def search(op, tree):
                    leaf = yield from descend(tree, op.key)
                    op.result = leaf.lookup(op.key)
                    yield UnlatchEff(leaf.page_id)

                def leaky(op, tree):
                    leaf = yield from descend(tree, op.key)
                    if leaf.lookup(op.key):
                        yield UnlatchEff(leaf.page_id)

                def forgetful(op, tree):
                    leaf = yield from descend(tree, op.key)
                    op.result = leaf.lookup(op.key)
                """
            ),
        },
    )
    assert codes(findings) == ["PA520", "PA520"]
    assert {"'leaky'" in f.message for f in findings} == {True, False}
    assert any("'forgetful'" in f.message for f in findings)
    assert all("descend() returns" in f.message for f in findings)


def test_pa520_unlatch_many_releases_everything(tmp_path):
    findings = graph_findings(
        tmp_path,
        {
            _OPS_STUB[0]: _OPS_STUB[1],
            "src/repro/core/plans.py": (
                """
                from repro.core.ops import LatchEff, UnlatchManyEff

                def plan(op, tree):
                    yield LatchEff(tree.meta_page, 1)
                    yield LatchEff(op.page, 1)
                    yield UnlatchManyEff([tree.meta_page, op.page])
                """
            ),
        },
    )
    assert findings == []


def test_pa521_swallowing_handler_while_latched(tmp_path):
    findings = graph_findings(
        tmp_path,
        {
            "src/repro/core/driver.py": (
                """
                class Driver:
                    def drive(self, op):
                        self.latches.request(op, op.page, 1)
                        try:
                            self.step(op)
                        except ValueError:
                            return None
                        self.latches.release(op, op.page)
                        return op
                """
            ),
        },
    )
    assert codes(findings) == ["PA521"]
    assert "swallow" in findings[0].message


_BLOCKING_SERVE = """
class IoError(Exception):
    pass

class BlockingInterpreter:
    def _serve(self, tls, op, plan, effect):
        latches = self.latches
        try:
            while effect is not None:
                yield from latches.acquire(tls, op, effect.page_id, effect.mode)
                try:
                    effect = plan.send(None)
                except StopIteration:
                    break
        except IoError:
            plan.close()
{handler}
"""


def test_pa521_blocking_table_acquire_before_a_swallowing_handler(tmp_path):
    # the blocking table's acquire(tls, op, page, mode) and
    # release(tls, op, page) take the page at another position than
    # LatchTable.request(op, page, mode): an I/O handler that closes the
    # plan and returns with the latches still held is reported ...
    findings = graph_findings(
        tmp_path,
        {
            "src/repro/baselines/sync_tree.py": _BLOCKING_SERVE.format(
                handler="            return None"
            ),
        },
    )
    assert codes(findings) == ["PA521"]
    assert "swallow" in findings[0].message
    # ... and one that releases what the op holds and re-raises is not
    findings = graph_findings(
        tmp_path,
        {
            "src/repro/baselines/sync_tree.py": _BLOCKING_SERVE.format(
                handler=(
                    "            for page_id in sorted(op.held_latches):\n"
                    "                yield from latches.release(tls, op, page_id)\n"
                    "            raise"
                )
            ),
        },
    )
    assert findings == []


def test_pa521_abort_delegation_and_protocol_handlers_are_clean(tmp_path):
    findings = graph_findings(
        tmp_path,
        {
            "src/repro/core/driver.py": (
                """
                class Driver:
                    def drive(self, op):
                        self.latches.request(op, op.page, 1)
                        try:
                            self.step(op)
                        except ValueError:
                            self._abort_op(op)
                            return None
                        self.latches.release(op, op.page)
                        return op

                    def pump(self, op):
                        self.latches.request(op, op.page, 1)
                        try:
                            op.gen.send(None)
                        except StopIteration:
                            return self._finish(op)
                        self.latches.release(op, op.page)
                        return None
                """
            ),
        },
    )
    assert findings == []


# ---------------------------------------------------------------------------
# PA530 hook contract
# ---------------------------------------------------------------------------


def test_pa530_unguarded_hook_consult(tmp_path):
    findings = graph_findings(
        tmp_path,
        {
            "src/repro/nvme/device.py": (
                """
                class NvmeDevice:
                    def __init__(self):
                        self.perturb_service = None

                    def service(self, command, service_ns):
                        return self.perturb_service(command, service_ns)
                """
            ),
        },
    )
    assert codes(findings) == ["PA530"]
    assert "perturb_service" in findings[0].message


def test_pa530_guard_shapes_are_clean(tmp_path):
    findings = graph_findings(
        tmp_path,
        {
            "src/repro/core/engine.py": (
                """
                class Engine:
                    def __init__(self):
                        self.on_dispatch = ()

                    def observers(self, event):
                        if self.on_dispatch:
                            for observer in self.on_dispatch:
                                observer(event)


                class NvmeDevice:
                    def __init__(self):
                        self.perturb_service = None

                    def direct(self, command, service_ns):
                        if self.perturb_service is not None:
                            service_ns = self.perturb_service(command, service_ns)
                        return service_ns

                    def early_return(self, command, service_ns):
                        if self.perturb_service is None:
                            return service_ns
                        return self.perturb_service(command, service_ns)


                class SimOS:
                    def __init__(self):
                        self.pick_runnable = None

                    def else_branch(self, queue):
                        if self.pick_runnable is None or len(queue) == 1:
                            return queue[0]
                        return queue[self.pick_runnable(queue)]

                    def bound_collaborator(self, op):
                        self.io_history.on_submit(op)
                """
            ),
        },
    )
    assert findings == []


def test_pa530_observer_slot_is_rebound_only_by_subscribe(tmp_path):
    findings = graph_findings(
        tmp_path,
        {
            "src/repro/sim/hooks.py": (
                """
                def subscribe(obj, slot, fn):
                    setattr(obj, slot, getattr(obj, slot) + (fn,))
                """
            ),
            "src/repro/nvme/device.py": (
                """
                class NvmeDevice:
                    def __init__(self):
                        self.on_submit = ()
                        self.on_complete = None  # the old null default
                """
            ),
            "src/repro/obs/session.py": (
                """
                from repro.sim.hooks import subscribe


                class TraceSession:
                    def attach(self, device):
                        subscribe(device, "on_submit", self._on_submit)
                        device.on_complete = self._on_complete  # overwrite

                    def finish(self, device):
                        device.on_complete = ()  # drops everyone else
                """
            ),
            # an attribute of another class that shares a slot's name
            "src/repro/core/ops.py": (
                """
                class Operation:
                    def __init__(self):
                        self.on_complete = None


                def search_op(key, on_complete=None):
                    op = Operation()
                    op.on_complete = on_complete
                    return op
                """
            ),
        },
    )
    assert [(f.path.rsplit("/", 1)[-1], f.line) for f in findings] == [
        ("device.py", 5), ("session.py", 8), ("session.py", 11),
    ]
    assert codes(findings) == ["PA530"] * 3
    assert "subscribe" in findings[0].message


def test_pa530_decision_slot_is_bound_only_in_fuzz(tmp_path):
    findings = graph_findings(
        tmp_path,
        {
            "src/repro/simos/scheduler.py": (
                """
                class SimOS:
                    def __init__(self):
                        self.wakeup_pick = None
                        self.pick_runnable = lambda queue: 0
                """
            ),
            "src/repro/fuzz/hooks.py": (
                """
                def bind(simos, decider):
                    simos.pick_runnable = lambda queue: decider.pick(len(queue))
                """
            ),
        },
    )
    assert codes(findings) == ["PA530"]
    assert findings[0].path.endswith("simos/scheduler.py")
    assert "repro.fuzz" in findings[0].message


def test_pa530_unregistered_null_default_hook_is_drift(tmp_path):
    findings = graph_findings(
        tmp_path,
        {
            "src/repro/core/engine.py": (
                """
                class Engine:
                    def __init__(self):
                        self.on_custom_thing = None
                        self.on_other_thing = ()

                    def fire(self, op):
                        if self.on_custom_thing is not None:
                            self.on_custom_thing(op)
                        for observer in self.on_other_thing:
                            observer(op)


                class Widget:
                    def __init__(self):
                        self.on_dispatch = ()  # registered for Engine only
                """
            ),
        },
    )
    assert codes(findings) == ["PA530"] * 3
    assert all("not registered" in f.message for f in findings)


# ---------------------------------------------------------------------------
# satellite: repo-relative finding paths
# ---------------------------------------------------------------------------


def test_canonical_path_is_repo_relative_posix():
    absolute = os.path.join(REPO_ROOT, "src", "repro", "api.py")
    assert canonical_path(absolute) == "src/repro/api.py"
    # and independent of a relative spelling
    relative = os.path.relpath(absolute)
    assert canonical_path(relative) == "src/repro/api.py"


def test_findings_in_repo_use_relative_paths(tmp_path):
    # a tmp tree has no repo markers, so paths stay absolute POSIX —
    # but inside a git checkout the same finding keys repo-relative
    target = tmp_path / "checkout" / "src" / "repro" / "core" / "mod.py"
    target.parent.mkdir(parents=True)
    target.write_text("import time\n\n\ndef f():\n    return time.time()\n")
    subprocess.run(
        ["git", "init", "-q", str(tmp_path / "checkout")],
        check=True,
        capture_output=True,
    )
    findings = analyze([str(target)]).findings
    assert codes(findings) == ["PA510"]
    assert findings[0].path == "src/repro/core/mod.py"


# ---------------------------------------------------------------------------
# satellite: SARIF reporter
# ---------------------------------------------------------------------------


def test_cli_sarif_reporter_schema(tmp_path, capsys):
    target = tmp_path / "src" / "repro" / "core" / "seeded.py"
    target.parent.mkdir(parents=True)
    target.write_text("import time\n\n\ndef f():\n    return time.time()\n")
    exit_code = patlint_main([str(target), "--no-compile", "--format", "sarif"])
    out = capsys.readouterr().out
    assert exit_code == 1
    document = json.loads(out)
    assert document["version"] == "2.1.0"
    run = document["runs"][0]
    assert run["tool"]["driver"]["name"] == "patlint"
    rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
    for code in ("PA102", "PA501", "PA502", "PA510", "PA520", "PA530", "PA901"):
        assert code in rule_ids
    (result,) = run["results"]
    assert result["ruleId"] == "PA510"
    assert result["level"] == "error"
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"].endswith("src/repro/core/seeded.py")
    assert location["region"]["startLine"] == 5


def test_cli_sarif_output_file(tmp_path):
    target = tmp_path / "src" / "clean.py"
    target.parent.mkdir()
    target.write_text("def f(x):\n    return x\n")
    report = tmp_path / "report.sarif"
    exit_code = patlint_main(
        [
            str(target),
            "--no-compile",
            "--format",
            "sarif",
            "--output",
            str(report),
        ]
    )
    assert exit_code == 0
    document = json.loads(report.read_text())
    assert document["runs"][0]["results"] == []


# ---------------------------------------------------------------------------
# satellite: 3.12-only syntax is skipped, never a crash
# ---------------------------------------------------------------------------

_PEP695 = """\
type Pages = list[int]


def first[T](items: list[T]) -> T:
    return items[0]
"""


def test_pep695_syntax_degrades_gracefully(tmp_path):
    paths = write_tree(
        tmp_path,
        {
            "src/repro/core/modern.py": _PEP695,
            "src/repro/core/plain.py": "X = 1\n",
        },
    )
    result = analyze(paths)
    assert result.findings == []
    if sys.version_info >= (3, 12):
        assert "repro.core.modern" in result.graph.modules
    else:
        # the byte-compile pass is what reports it
        assert "repro.core.modern" not in result.graph.modules
        # the parseable file is still fully analyzed
        assert "repro.core.plain" in result.graph.modules


# ---------------------------------------------------------------------------
# acceptance pins
# ---------------------------------------------------------------------------


def test_repository_graph_self_run_is_clean():
    """The acceptance invariant: src+tests+benchmarks, every per-file
    rule and every graph rule."""
    paths = [
        os.path.join(REPO_ROOT, name) for name in ("src", "tests", "benchmarks")
    ]
    result = analyze(paths)
    assert result.findings == []
    assert result.unparsed == []
    assert result.graph is not None
    assert "repro.core.engine" in result.graph.modules


def test_analyzer_package_self_run_with_graph_is_clean():
    result = analyze([os.path.join(REPO_ROOT, "tools")])
    assert result.findings == []
    assert result.unparsed == []


def test_list_rules_includes_graph_catalog(capsys):
    assert patlint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in (
        "PA501", "PA502", "PA503",
        "PA510", "PA511", "PA512",
        "PA520", "PA521", "PA530",
    ):
        assert code in out
    assert "[graph]" in out


def test_src_imports_only_the_standard_library_and_itself():
    """Virtual time depends on no third-party code: every absolute
    import under ``src/repro`` names ``repro`` or a stdlib module."""
    stdlib = sys.stdlib_module_names
    foreign = []
    src = os.path.join(REPO_ROOT, "src", "repro")
    for directory, _dirs, files in os.walk(src):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), path)
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    modules = [node.module]
                else:
                    continue
                for module in modules:
                    top = module.partition(".")[0]
                    if top != "repro" and top not in stdlib:
                        where = os.path.relpath(path, REPO_ROOT)
                        foreign.append("%s:%d %s" % (where, node.lineno, module))
    assert foreign == []


def test_no_src_body_yields_a_call_spelled_instruction():
    """A CPU burst and a semaphore syscall are calls in ``src/repro``
    (``simos.cpu`` / ``sem_wait`` / ``sem_post``); only the blocking
    instructions that have no call form may be yielded."""
    spelled = {"Cpu", "SemWait", "SemPost"}
    found = []
    src = os.path.join(REPO_ROOT, "src", "repro")
    for directory, _dirs, files in os.walk(src):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), path)
            for node in ast.walk(tree):
                if not (isinstance(node, ast.Yield)
                        and isinstance(node.value, ast.Call)):
                    continue
                func = node.value.func
                called = getattr(func, "id", getattr(func, "attr", None))
                if called in spelled:
                    where = os.path.relpath(path, REPO_ROOT)
                    found.append("%s:%d %s" % (where, node.lineno, called))
    assert found == []


def test_mini_toml_parses_layers_toml_as_tomllib_does():
    """The 3.10 fallback reads the committed file as 3.11's parser does."""
    tomllib = pytest.importorskip("tomllib")
    with open(DEFAULT_CONFIG_PATH, encoding="utf-8") as handle:
        text = handle.read()
    assert _mini_toml(text) == tomllib.loads(text)
