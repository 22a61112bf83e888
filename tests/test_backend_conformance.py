"""Backend conformance suite: one contract, three substrates.

Every test in this module is parametrized over the three
:class:`repro.backend.IoBackend` implementations (sim / file / replay)
and pins the behavior the layers above the boundary rely on:
submit/poll ordering, :class:`~repro.nvme.command.IoStatus`
exhaustiveness, queue-full rejection, completion accounting, hook
points, metric registration and the raw media plane.  A backend that
passes this suite can carry the PA-Tree engine, the PA-LSM worker and
the sharded router without further changes.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.backend import (
    BACKEND_KINDS,
    FileBackend,
    SimNvmeBackend,
    TraceReplayBackend,
    make_backend,
)
from repro.backend.trace_io import TraceWriter, read_trace
from repro.errors import DeviceError, PageBoundsError, QueueFullError
from repro.nvme.command import OP_READ, OP_WRITE, IoStatus
from repro.nvme.device import DeviceProfile
from repro.obs.metrics import MetricRegistry
from repro.sim.engine import Engine
from repro.sim.hooks import subscribe

PAGE = 512


def small_profile(**overrides):
    defaults = dict(
        name="conformance",
        channels=4,
        read_service_ns=2_000,
        write_service_ns=3_000,
        service_sigma=0.0,
        page_size=PAGE,
        capacity_pages=4_096,
    )
    defaults.update(overrides)
    return DeviceProfile(**defaults)


def make_trace(path, n=64):
    writer = TraceWriter(path, backend="file", page_size=PAGE, channels=4)
    for index in range(n):
        writer.record(OP_READ, index + 1, 2_000 + 256 * (index % 3), qd=1)
        writer.record(OP_WRITE, index + 1, 3_000 + 256 * (index % 5), qd=1)
    writer.close()
    return path


def build_backend(kind, engine, tmp_path, faults=None, profile=None):
    profile = profile or small_profile()
    if kind == "sim":
        return SimNvmeBackend(engine, profile, faults=faults)
    if kind == "file":
        return FileBackend(
            engine,
            profile=profile,
            path=str(tmp_path / "scratch.dat"),
            faults=faults,
        )
    trace = make_trace(str(tmp_path / "trace.jsonl"))
    return TraceReplayBackend(engine, trace, profile=profile, faults=faults)


@pytest.fixture(params=BACKEND_KINDS)
def backend(request, tmp_path):
    engine = Engine(seed=11)
    instance = build_backend(request.param, engine, tmp_path)
    yield instance
    instance.close()


@pytest.fixture(params=BACKEND_KINDS)
def make_custom(request, tmp_path):
    """Build the parametrized kind with faults / profile overrides."""
    built = []

    def make(faults=None, **profile_overrides):
        built.append(
            build_backend(
                request.param, Engine(seed=11), tmp_path, faults=faults,
                profile=small_profile(**profile_overrides),
            )
        )
        return built[-1]

    yield make
    for instance in built:
        instance.close()


def drain(backend, qpair, want):
    """Advance virtual time until ``want`` completions are delivered."""
    engine = backend.engine
    delivered = []
    while len(delivered) < want:
        delivered.extend(backend.probe(qpair))
        if len(delivered) >= want:
            break
        next_time = engine.events.peek_time()
        if next_time is None:
            raise AssertionError(
                "engine drained with %d/%d completions"
                % (len(delivered), want)
            )
        engine.run(until_ns=next_time)
    return delivered


# ---------------------------------------------------------------------------
# submit/poll ordering
# ---------------------------------------------------------------------------


def test_completions_only_visible_through_probe(backend):
    qpair = backend.alloc_qpair()
    command = backend.write(qpair, 7, bytes(PAGE))
    assert command.status is IoStatus.SUBMITTED
    # nothing is visible before virtual time advances past the service
    assert backend.probe(qpair) == []
    delivered = drain(backend, qpair, 1)
    assert len(delivered) == 1
    assert delivered[0].command is command
    assert command.status is IoStatus.SUCCESS


def test_submit_does_not_block_and_probe_orders_by_completion(backend):
    qpair = backend.alloc_qpair()
    write = backend.write(qpair, 1, bytes(PAGE))
    read = backend.read(qpair, 1)
    assert backend.outstanding.value == 2
    delivered = drain(backend, qpair, 2)
    # both start concurrently (channels > 1), so delivery is completion
    # order, not submit order
    commands = [completion.command for completion in delivered]
    assert len(commands) == 2 and read in commands and write in commands
    finished = [command.complete_ns for command in commands]
    assert finished == sorted(finished)
    if backend.kind != "file":
        # modelled service times: the shorter read completes first.  The
        # file substrate times each syscall on the host, and on a busy
        # one the pread can take longer than the pwrite
        assert commands == [read, write]
    assert backend.outstanding.value == 0


def test_submit_many_is_all_or_nothing(backend):
    qpair = backend.alloc_qpair(sq_size=4, cq_size=16)
    entries = [(OP_WRITE, lba, bytes(PAGE)) for lba in range(1, 9)]
    with pytest.raises(QueueFullError):
        backend.io_submit_many(qpair, entries)
    # the failed vector left nothing behind: the ring still takes 4
    commands = backend.io_submit_many(qpair, entries[:4])
    assert len(commands) == 4
    drain(backend, qpair, 4)


def test_empty_vector_is_not_a_vector_submission(backend):
    qpair = backend.alloc_qpair()
    assert backend.io_submit_many(qpair, []) == []
    assert qpair.vector_submissions == 0
    assert qpair.vector_commands == 0
    backend.write_many(qpair, [(1, bytes(PAGE)), (2, bytes(PAGE))])
    assert qpair.vector_submissions == 1
    assert qpair.vector_commands == 2
    drain(backend, qpair, 2)


def test_one_channel_fetches_round_robin_across_qpairs(make_custom):
    backend = make_custom(channels=1)
    first = backend.alloc_qpair()
    second = backend.alloc_qpair()
    served = []
    subscribe(
        backend.device,
        "on_complete",
        lambda completion: served.append(completion.command.qpair),
    )
    # the whole backlog of the first queue is submitted before the
    # second queue's; a fair device still alternates between them
    for lba in range(1, 4):
        backend.read(first, lba)
    for lba in range(4, 7):
        backend.read(second, lba)
    backend.engine.run()
    assert served == [first, second] * 3
    assert len(backend.probe(first)) == 3
    assert len(backend.probe(second)) == 3


# ---------------------------------------------------------------------------
# queue accounting
# ---------------------------------------------------------------------------


def test_queue_full_raises_typed_error(backend):
    qpair = backend.alloc_qpair(sq_size=2, cq_size=16)
    submitted = 0
    with pytest.raises(QueueFullError):
        # the device fetches into channels as commands arrive, so the
        # ring frees slots concurrently; keep pushing without letting
        # time advance and the bounded ring must eventually reject
        for lba in range(1, 2_000):
            backend.read(qpair, lba)
            submitted += 1
    assert submitted >= 2
    drain(backend, qpair, submitted)


def test_qpair_counters_track_submissions(backend):
    qpair = backend.alloc_qpair()
    backend.write(qpair, 3, bytes(PAGE))
    backend.read(qpair, 3)
    assert qpair.submitted == 2
    assert qpair.outstanding == 2
    drain(backend, qpair, 2)
    assert qpair.completed == 2
    assert qpair.outstanding == 0


# ---------------------------------------------------------------------------
# IoStatus + validation
# ---------------------------------------------------------------------------


def test_every_completion_status_is_an_iostatus(backend):
    qpair = backend.alloc_qpair()
    backend.write(qpair, 2, bytes(PAGE))
    backend.read(qpair, 2)
    for completion in drain(backend, qpair, 2):
        assert isinstance(completion.status, IoStatus)
        assert completion.ok is completion.status.ok
        assert completion.status.ok or completion.status.is_failure


def test_bounds_and_payload_validation(backend):
    qpair = backend.alloc_qpair()
    capacity = backend.capacity_pages
    with pytest.raises(PageBoundsError):
        backend.read(qpair, capacity)
    with pytest.raises(DeviceError):
        backend.write(qpair, 1, b"short")
    with pytest.raises(DeviceError):
        backend.io_submit(qpair, OP_WRITE, 1, data=None)


def test_injected_write_failure_leaves_media_untouched(tmp_path):
    for kind in BACKEND_KINDS:
        engine = Engine(seed=5)
        scratch = tmp_path / kind
        scratch.mkdir()
        backend = build_backend(
            kind, engine, scratch,
            faults={"write_error_rate": 1.0},
        )
        qpair = backend.alloc_qpair()
        backend.raw_write(9, b"\x07" * PAGE)
        backend.io_submit(qpair, OP_WRITE, 9, data=b"\x42" * PAGE)
        (completion,) = drain(backend, qpair, 1)
        assert completion.status is IoStatus.MEDIA_ERROR
        assert backend.raw_read(9) == b"\x07" * PAGE
        # the driver's default retry policy resubmits transient media
        # errors, so the device sees one error per attempt; exactly one
        # *failure* is delivered to the caller once the budget is spent
        assert backend.errors_completed.value >= 1
        assert backend.failures_delivered.value == 1
        backend.close()


def test_poisoned_lba_fails_reads_until_a_write_cures_it(make_custom):
    backend = make_custom(faults={"poison_lbas": (5,)})
    qpair = backend.alloc_qpair()
    payload = b"\x2a" * PAGE

    poisoned = backend.read(qpair, 5)
    (completion,) = drain(backend, qpair, 1)
    assert completion.status is IoStatus.UNRECOVERED_READ
    assert poisoned.data is None
    assert backend.errors_completed.value == 1

    backend.write(qpair, 5, payload)
    (completion,) = drain(backend, qpair, 1)
    assert completion.status is IoStatus.SUCCESS
    assert backend.fault_injector.poison_cured == 1

    cured = backend.read(qpair, 5)
    (completion,) = drain(backend, qpair, 1)
    assert completion.status is IoStatus.SUCCESS
    assert cured.data == payload


# ---------------------------------------------------------------------------
# completion accounting
# ---------------------------------------------------------------------------


def test_completion_counters_and_latency_accounting(backend):
    qpair = backend.alloc_qpair()
    for lba in range(1, 5):
        backend.write(qpair, lba, bytes([lba]) * PAGE)
    for lba in range(1, 4):
        backend.read(qpair, lba)
    drain(backend, qpair, 7)
    assert backend.writes_completed.value == 4
    assert backend.reads_completed.value == 3
    assert backend.errors_completed.value == 0
    assert backend.total_completed == 7
    assert backend.mean_read_latency_ns() > 0
    assert backend.mean_write_latency_ns() > 0
    assert backend.probe_calls.value >= 1


def test_read_returns_written_data(backend):
    qpair = backend.alloc_qpair()
    payload = bytes(range(256)) * (PAGE // 256)
    backend.write(qpair, 21, payload)
    drain(backend, qpair, 1)
    command = backend.read(qpair, 21)
    drain(backend, qpair, 1)
    assert command.data == payload


def test_raw_media_plane_round_trip(backend):
    payload = b"\x5a" * PAGE
    backend.raw_write(33, payload)
    assert backend.raw_read(33) == payload
    assert backend.raw_read(34) == bytes(PAGE)
    with pytest.raises(PageBoundsError):
        backend.raw_read(backend.capacity_pages)


# ---------------------------------------------------------------------------
# hook points
# ---------------------------------------------------------------------------


def test_hooks_default_null_and_fire_when_set(backend):
    device, driver = backend.device, backend.driver
    assert device.on_submit == ()
    assert device.on_complete == ()
    assert driver.on_retry == ()
    assert device.perturb_service is None
    assert backend.fault_injector is None

    seen = {"submit": 0, "complete": 0, "perturb": 0}

    def on_submit(command):
        seen["submit"] += 1

    def on_complete(completion):
        seen["complete"] += 1

    def perturb(command, service_ns):
        seen["perturb"] += 1
        return service_ns

    subscribe(device, "on_submit", on_submit)
    subscribe(device, "on_complete", on_complete)
    device.perturb_service = perturb
    qpair = backend.alloc_qpair()
    backend.read(qpair, 1)
    drain(backend, qpair, 1)
    assert seen == {"submit": 1, "complete": 1, "perturb": 1}


# ---------------------------------------------------------------------------
# metrics + identity
# ---------------------------------------------------------------------------


def test_register_metrics_exports_device_and_driver_families(backend):
    registry = backend.register_metrics(MetricRegistry())
    names = {metric.name for metric in registry}
    for expected in (
        "device_reads_total",
        "device_writes_total",
        "device_errors_total",
        "device_probe_calls_total",
        "device_outstanding_ops",
        "driver_retries_total",
        "driver_failures_delivered_total",
    ):
        assert expected in names, expected


def test_describe_identifies_backend(backend):
    info = backend.describe()
    assert info["kind"] == backend.kind
    assert info["kind"] in BACKEND_KINDS
    assert info["wall_clock_variant"] is (backend.kind == "file")
    assert info["profile"] == "conformance"


def test_close_is_idempotent(backend):
    backend.close()
    backend.close()
    assert backend.closed


# ---------------------------------------------------------------------------
# backend-specific contract corners
# ---------------------------------------------------------------------------


def test_interface_contention_is_a_sim_only_property(make_custom):
    """Only the modelled SSD charges the profile's interface terms;
    file and replay latency is the (quantized / recorded) service
    time whatever the profile says."""
    backend = make_custom(fetch_ns=600, post_ns=400, probe_iface_ns=2_000)
    services = []

    def observe(command, service_ns):
        services.append(service_ns)
        return service_ns

    backend.device.perturb_service = observe
    qpair = backend.alloc_qpair()
    backend.probe(qpair)  # probe pressure ahead of the fetch
    command = backend.read(qpair, 1)
    backend.engine.run()
    (completion,) = backend.probe(qpair)
    latency = completion.visible_ns - command.submit_ns
    (service,) = services
    if backend.kind == "sim":
        # the probe holds the interface, then fetch and post queue on it
        assert latency == 2_000 + 600 + service + 400
    else:
        assert latency == service
        assert command.fetch_ns == command.submit_ns
        assert completion.visible_ns == command.complete_ns


def test_empty_probes_booked_in_one_call_cost_what_the_probes_cost(make_custom):
    """``probe_empty_repeat`` is the polled worker's idle burst: the
    same probe count, and the next fetch waits as long as behind the
    probes themselves (not at all on file and replay)."""

    def fetched(at_once):
        backend = make_custom(fetch_ns=600, post_ns=400, probe_iface_ns=2_000)
        engine, qpair = backend.engine, backend.alloc_qpair()
        if at_once:
            engine.run(until_ns=20 * 500)
            backend.probe_empty_repeat(20, 500)
        else:
            for _ in range(20):
                engine.run(until_ns=engine.now + 500)
                assert backend.probe(qpair) == []
        command = backend.read(qpair, 1)
        fetch_wait = command.fetch_ns - command.submit_ns
        return backend.kind, backend.probe_calls.value, fetch_wait

    kind, probes, fetch_wait = fetched(at_once=True)
    assert (kind, probes, fetch_wait) == fetched(at_once=False)
    assert probes == 20 and (fetch_wait > 600) == (kind == "sim")


def test_file_backend_quantizes_service_times(tmp_path):
    engine = Engine(seed=3)
    backend = FileBackend(
        engine, profile=small_profile(),
        path=str(tmp_path / "q.dat"), quantum_ns=512,
    )
    trace_path = str(tmp_path / "q.jsonl")
    backend.record_to(trace_path)
    qpair = backend.alloc_qpair()
    for lba in range(1, 9):
        backend.write(qpair, lba, bytes(PAGE))
    drain(backend, qpair, 8)
    backend.close()
    trace = read_trace(trace_path)
    assert len(trace) == 8
    assert all(
        record["service_ns"] % 512 == 0 and record["service_ns"] >= 512
        for record in trace.records
    )


def test_replay_consumes_recorded_times_in_order(tmp_path):
    trace_path = make_trace(str(tmp_path / "t.jsonl"), n=4)
    engine = Engine(seed=1)
    backend = TraceReplayBackend(
        engine, trace_path, profile=small_profile()
    )
    qpair = backend.alloc_qpair()
    latencies = []
    for _ in range(6):  # more reads than recorded: wraps deterministically
        command = backend.read(qpair, 1)
        (completion,) = drain(backend, qpair, 1)
        latencies.append(completion.visible_ns - command.submit_ns)
    trace = read_trace(trace_path)
    recorded = trace.service_times(OP_READ)
    assert latencies[: len(recorded)] == recorded
    assert latencies[len(recorded):] == recorded[: 6 - len(recorded)]
    assert backend.describe()["trace_wraps"] == 1
    backend.close()


def test_factory_builds_each_kind(tmp_path):
    engine = Engine(seed=2)
    sim = make_backend("sim", engine=engine, profile=small_profile())
    assert sim.kind == "sim" and not sim.wall_clock_variant

    engine = Engine(seed=2)
    scratch = str(tmp_path / "f.dat")
    file_backend = make_backend("file:" + scratch, engine=engine)
    assert file_backend.kind == "file" and file_backend.wall_clock_variant
    assert file_backend.path == scratch
    file_backend.close()

    engine = Engine(seed=2)
    trace_path = make_trace(str(tmp_path / "r.jsonl"))
    replay = make_backend("replay:" + trace_path, engine=engine)
    assert replay.kind == "replay" and not replay.wall_clock_variant
    assert len(replay.trace) > 0
