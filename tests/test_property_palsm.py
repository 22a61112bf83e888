"""Property-based tests for the PA-LSM extension: any interleaved
sequence of operations is observationally equivalent to a dict, across
memtable rotations, flushes and compactions.  Each property runs under
both interpreters of the one LSM algorithm
(``repro.baselines.lsm.levels``): the polled worker and the blocking
baseline store."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.baselines.io_service import DedicatedIoService
from repro.baselines.lsm import LeveledStore, LsmConfig, LsmStore
from repro.baselines.runner import BaselineRunner
from repro.core.ops import delete_op, insert_op, range_op, search_op
from repro.core.source import ClosedLoopSource
from repro.nvme.device import NvmeDevice, fast_test_profile
from repro.nvme.driver import NvmeDriver
from repro.palsm import PolledLsmWorker
from repro.sched.naive import NaiveScheduling
from repro.sim.engine import Engine
from repro.simos.scheduler import OsProfile, SimOS


def payload(key):
    return (key % 2**64).to_bytes(8, "little")


KEYS = st.integers(min_value=0, max_value=300)

OPERATION = st.one_of(
    st.tuples(st.just("put"), KEYS),
    st.tuples(st.just("delete"), KEYS),
    st.tuples(st.just("get"), KEYS),
    st.tuples(st.just("range"), KEYS),
)


# Long enough scripts over a small enough memtable that most examples
# flush several times and compact (at 25 entries and min_size=1 none of
# the 20 examples ever flushed).
SCRIPT = st.lists(OPERATION, min_size=60, max_size=150)
SHAPE = dict(
    memtable_entries=4, level0_limit=2, wal_pages=4_096, block_cache_pages=32
)


def build_machine(seed):
    engine = Engine(seed=seed)
    simos = SimOS(engine, OsProfile(cores=4))
    device = NvmeDevice(engine, fast_test_profile())
    return simos, device, NvmeDriver(device)


def build_worker(seed, **shape):
    simos, device, driver = build_machine(seed)
    store = LeveledStore(device, LsmConfig(**dict(SHAPE, **shape)))
    worker = PolledLsmWorker(
        simos, driver, store, NaiveScheduling(), ClosedLoopSource([], window=8)
    )
    return store, worker


def scripted_operations(script):
    """(operations, per-op expected results, final dict) for a script;
    every put writes a distinct version so a stale read shows."""
    model = {}
    operations = []
    expected = []
    for index, (kind, key) in enumerate(script):
        if kind == "put":
            operations.append(insert_op(key, payload(index)))
            expected.append(True)
            model[key] = payload(index)
        elif kind == "delete":
            operations.append(delete_op(key))
            expected.append(True)
            model.pop(key, None)
        elif kind == "get":
            operations.append(search_op(key))
            expected.append(model.get(key))
        else:
            operations.append(range_op(key, key + 60))
            expected.append(
                sorted((k, v) for k, v in model.items() if key <= k <= key + 60)
            )
    return operations, expected, model


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(script=SCRIPT, seed=st.integers(0, 50))
def test_palsm_equivalent_to_dict(script, seed):
    store, worker = build_worker(seed)
    operations, expected, model = scripted_operations(script)
    worker.run_operations(operations, window=1)
    for op, want in zip(operations, expected):
        assert op.result == want, (op.kind, op.key)
    # final full scan equals the model regardless of flush/compact state
    (full,) = worker.run_operations([range_op(0, 10**9)])
    assert dict(full.result) == model


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(script=SCRIPT, seed=st.integers(0, 50))
def test_sync_lsm_equivalent_to_dict(script, seed):
    """The same scripts through the blocking store, one thread."""
    simos, device, driver = build_machine(seed)
    store = LsmStore(device, DedicatedIoService(driver), LsmConfig(**SHAPE))
    operations, expected, model = scripted_operations(script)
    full = range_op(0, 10**9)
    BaselineRunner(
        simos, store, operations + [full], 1
    ).run_to_completion()
    for op, want in zip(operations, expected):
        assert op.result == want, (op.kind, op.key)
    assert dict(full.result) == model


def distinct_key_writes(script):
    """(operations, final dict): one put or delete per key, so the final
    state does not depend on the interleaving."""
    model = {}
    operations = []
    used = set()
    for kind, key in script:
        if key in used:
            continue
        used.add(key)
        if kind in ("put", "get", "range"):
            operations.append(insert_op(key, payload(key)))
            model[key] = payload(key)
        else:
            operations.append(delete_op(key))
    return operations, model


INTERLEAVED = dict(
    script=st.lists(OPERATION, min_size=10, max_size=200),
    seed=st.integers(0, 50),
    window=st.integers(2, 16),
)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(**INTERLEAVED)
def test_palsm_interleaved_no_lost_updates(script, seed, window):
    """With interleaving, puts/deletes on distinct keys must all land;
    we apply each key at most once so the final state is order-free."""
    store, worker = build_worker(seed, memtable_entries=25)
    operations, model = distinct_key_writes(script)
    worker.run_operations(operations, window=window)
    (full,) = worker.run_operations([range_op(0, 10**9)])
    assert dict(full.result) == model


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(**INTERLEAVED)
def test_sync_lsm_interleaved_no_lost_updates(script, seed, window):
    """The same writes through the blocking store on ``window`` threads,
    whose writer mutex serializes them in some order."""
    simos, device, driver = build_machine(seed)
    store = LsmStore(
        device, DedicatedIoService(driver), LsmConfig(**dict(SHAPE, memtable_entries=25))
    )
    operations, model = distinct_key_writes(script)
    BaselineRunner(simos, store, operations, window).run_to_completion()
    assert all(op.error is None for op in operations)
    full = range_op(0, 10**9)
    BaselineRunner(simos, store, [full], 1).run_to_completion()
    assert dict(full.result) == model
