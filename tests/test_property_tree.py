"""Property-based tests (hypothesis) for the tree and its substrates.

The central property: a PA-Tree driven by any interleaved sequence of
operations is observationally equivalent to a sorted dict, and every
on-media structural invariant holds afterwards — under the polled
engine and under the synchronous baseline's blocking interpreter of
the same plans.
"""

from collections import Counter

from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.baselines.io_service import DedicatedIoService
from repro.baselines.latching import BlockingLatchTable
from repro.baselines.runner import BaselineRunner
from repro.baselines.sync_tree import SyncTreeAccessor
from repro.core import batch
from repro.core.node import Node, TreeConfig
from repro.core.ops import (
    INSERT,
    OpSpec,
    batch_op,
    delete_op,
    insert_op,
    range_op,
    search_op,
    update_op,
)
from repro.core.source import ClosedLoopSource
from repro.core.engine import PaTreeEngine
from repro.core.tree import PaTree
from repro.nvme.device import NvmeDevice, fast_test_profile
from repro.nvme.driver import NvmeDriver
from repro.sched.naive import NaiveScheduling
from repro.sim.engine import Engine
from repro.simos.scheduler import OsProfile, SimOS


def payload(key):
    return (key % 2**64).to_bytes(8, "little")


# 4-entry leaves and a 61-key space: a script of 60+ operations splits,
# merges, borrows and grows/shrinks the root instead of living in one leaf
TREE_PAYLOAD_SIZE = 104


def wide_payload(key):
    return payload(key) * (TREE_PAYLOAD_SIZE // 8)


KEYS = st.integers(min_value=0, max_value=60)

# inserts and deletes weigh double so leaves fill up and drain again
KINDS = st.sampled_from(
    ("insert", "insert", "delete", "delete", "update", "search", "range")
)
OPERATION = st.tuples(KINDS, KEYS)


def build_machine(seed):
    engine = Engine(seed=seed)
    simos = SimOS(engine, OsProfile(cores=4))
    device = NvmeDevice(engine, fast_test_profile())
    driver = NvmeDriver(device)
    tree = PaTree.create(device, payload_size=TREE_PAYLOAD_SIZE)
    return simos, driver, tree


def build_engine(seed):
    simos, driver, tree = build_machine(seed)
    pa = PaTreeEngine(
        simos,
        driver,
        tree,
        NaiveScheduling(),
        source=ClosedLoopSource([], window=16),
    )
    return pa


def build_script(script):
    """Operations for ``script``, each one's result under sequential
    application, and the dict they leave behind."""
    model = {}
    operations = []
    expected = []
    for kind, key in script:
        if kind == "insert":
            operations.append(insert_op(key, wide_payload(key)))
            expected.append(key not in model)
            model[key] = wide_payload(key)
        elif kind == "delete":
            operations.append(delete_op(key))
            expected.append(key in model)
            model.pop(key, None)
        elif kind == "update":
            operations.append(update_op(key, wide_payload(key + 1)))
            expected.append(key in model)
            if key in model:
                model[key] = wide_payload(key + 1)
        elif kind == "search":
            operations.append(search_op(key))
            expected.append(model.get(key))
        else:
            operations.append(range_op(key, key + 10))
            expected.append(
                sorted((k, v) for k, v in model.items() if key <= k <= key + 10)
            )
    return operations, expected, model


def check_against_model(tree, operations, expected, model):
    for op, want in zip(operations, expected):
        assert op.result == want, (op.kind, op.key)
    assert dict(tree.iterate_items_raw()) == model
    stats = tree.validate()
    assert stats["keys"] == len(model)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(script=st.lists(OPERATION, min_size=60, max_size=120), seed=st.integers(0, 100))
def test_tree_equivalent_to_dict(script, seed):
    pa = build_engine(seed)
    operations, expected, model = build_script(script)
    # window=1 keeps operations sequential so per-op results are exact
    pa.source = ClosedLoopSource(operations, window=1)
    pa.run_to_completion()
    check_against_model(pa.tree, operations, expected, model)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(script=st.lists(OPERATION, min_size=60, max_size=120), seed=st.integers(0, 100))
def test_blocking_interpreter_equivalent_to_dict(script, seed):
    """The same plans under the synchronous baseline's interpreter."""
    simos, driver, tree = build_machine(seed)
    operations, expected, model = build_script(script)
    latches = BlockingLatchTable()
    accessor = SyncTreeAccessor(tree, DedicatedIoService(driver), latches)
    # one thread keeps operations sequential so per-op results are exact
    BaselineRunner(simos, accessor, operations, n_threads=1).run_to_completion()
    latches.assert_quiescent()
    check_against_model(tree, operations, expected, model)


BATCH_SPEC = st.tuples(
    st.sampled_from(("put", "put", "delete", "delete", "get")), KEYS
)

# in batches of 20: three n-way splits and a root growth fill fifteen
# leaves, then each leaf is cut to one key (the leftmost borrows from a
# still-full right sibling, later ones merge) and the tree is drained.
# Random scripts alone rarely borrow — a leaf must fall to one key next
# to a full sibling inside one batch — so this example is what makes
# the "every path was taken" assertion below hold on every run.
FILL_AND_DRAIN = (
    [("put", key) for key in range(60)]
    + [("delete", key) for key in range(60) if key % 4 != 3]
    + [("delete", key) for key in range(60) if key % 4 == 3]
)


def build_batches(script, chunk):
    """``script`` cut into batch operations of ``chunk`` specs, each
    spec's result under sequential application, and the final dict."""
    model = {}
    batches = []
    expected = []
    for start in range(0, len(script), chunk):
        specs = []
        for verb, key in script[start:start + chunk]:
            if verb == "put":
                specs.append(OpSpec.put(key, wide_payload(key)))
                expected.append(key not in model)
                model[key] = wide_payload(key)
            elif verb == "delete":
                specs.append(OpSpec.delete(key))
                expected.append(model.pop(key, None) is not None)
            else:
                specs.append(OpSpec.get(key))
                expected.append(model.get(key))
        batches.append(batch_op(specs))
    return batches, expected, model


def test_batches_equivalent_to_dict_under_both_interpreters(monkeypatch):
    """The batch sibling of the two properties above: one script, cut
    into batches, under the polled engine and under the blocking
    interpreter — and the run as a whole must have gone through the
    n-way split, root growth, merge and borrow, under each of them."""
    taken = Counter()
    interpreter = ["polled"]

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args):
            taken[interpreter[0], name] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, wrapper)

    steps = [
        (batch, "_multi_split"),
        (batch, "_grow_root"),
        (Node, "merge_from_right"),
        (Node, "borrow_from_right"),
    ]
    for owner, name in steps:
        counted(owner, name)

    def check(tree, batches, expected, model):
        assert [r for op in batches for r in op.result] == expected
        assert dict(tree.iterate_items_raw()) == model
        assert tree.validate()["keys"] == len(model)

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        script=st.lists(BATCH_SPEC, min_size=60, max_size=120),
        seed=st.integers(0, 100),
        chunk=st.integers(1, 40),
    )
    @example(script=FILL_AND_DRAIN, seed=0, chunk=20)
    def both_interpreters(script, seed, chunk):
        interpreter[0] = "polled"
        pa = build_engine(seed)
        batches, expected, model = build_batches(script, chunk)
        pa.source = ClosedLoopSource(batches, window=1)
        pa.run_to_completion()
        check(pa.tree, batches, expected, model)

        interpreter[0] = "blocking"
        simos, driver, tree = build_machine(seed)
        batches, expected, model = build_batches(script, chunk)
        latches = BlockingLatchTable()
        accessor = SyncTreeAccessor(tree, DedicatedIoService(driver), latches)
        BaselineRunner(simos, accessor, batches, n_threads=1).run_to_completion()
        latches.assert_quiescent()
        check(tree, batches, expected, model)

    both_interpreters()
    for _owner, name in steps:
        assert taken["polled", name] and taken["blocking", name], (name, taken)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    script=st.lists(OPERATION, min_size=60, max_size=150),
    seed=st.integers(0, 100),
    window=st.integers(2, 24),
)
def test_tree_interleaved_final_state(script, seed, window):
    """With interleaving, per-op results depend on order, but the final
    media state must equal the dict built from sequential application
    (keys never collide mid-flight when each key appears once in
    flight; we assert only invariants + key-set sanity)."""
    pa = build_engine(seed)
    operations, _expected, _model = build_script(script)
    touched = {op.key for op in operations if op.kind == INSERT}
    pa.source = ClosedLoopSource(operations, window=window)
    pa.run_to_completion()
    stats = pa.tree.validate()
    media = dict(pa.tree.iterate_items_raw())
    assert stats["keys"] == len(media)
    assert set(media) <= touched


@settings(max_examples=50, deadline=None)
@given(
    keys=st.lists(
        st.integers(0, 2**64 - 1), min_size=1, max_size=60, unique=True
    )
)
def test_node_serialization_roundtrip(keys):
    config = TreeConfig(page_size=1024, payload_size=8)
    keys = sorted(keys)[: config.leaf_capacity]
    leaf = Node.new_leaf(config, 3)
    for key in keys:
        leaf.leaf_insert(key, payload(key))
    restored = Node.from_bytes(config, 3, leaf.to_bytes())
    assert restored.keys == sorted(keys)
    assert restored.values == [payload(k) for k in sorted(keys)]


@settings(max_examples=50, deadline=None)
@given(
    keys=st.lists(st.integers(0, 10**9), min_size=4, max_size=40, unique=True)
)
def test_split_then_merge_is_identity(keys):
    config = TreeConfig(page_size=1024, payload_size=8)
    keys = sorted(keys)[: config.leaf_capacity]
    if len(keys) < 4:
        return
    leaf = Node.new_leaf(config, 1)
    for key in keys:
        leaf.leaf_insert(key, payload(key))
    right, separator = leaf.split(2)
    assert leaf.keys == [k for k in keys if k < separator]
    assert right.keys == [k for k in keys if k >= separator]
    leaf.merge_from_right(right, separator)
    assert leaf.keys == keys


@settings(max_examples=40, deadline=None)
@given(
    items=st.lists(
        st.tuples(st.integers(0, 2**40), st.binary(min_size=8, max_size=8)),
        min_size=1,
        max_size=500,
        unique_by=lambda kv: kv[0],
    )
)
def test_bulk_load_roundtrip(items):
    device = NvmeDevice(Engine(seed=0), fast_test_profile())
    tree = PaTree.create(device)
    items = sorted(items)
    tree.bulk_load(items)
    assert list(tree.iterate_items_raw()) == items
    stats = tree.validate(check_fill=True)
    assert stats["keys"] == len(items)
