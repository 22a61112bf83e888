"""Differential schedule-fuzzing harness.

One fuzz run = one seeded workload executed through a session facade
(:class:`~repro.api.PATreeSession`, :class:`~repro.api.AsyncLsmSession`
or :class:`~repro.api.ShardedSession`) while a
:class:`~repro.fuzz.hooks.ScheduleExplorer` perturbs the pinned
nondeterminism sources (SimOS scheduling choices, NVMe service times).
Every step is checked against a dict oracle; structural invariants
(tree validation, latch quiescence, no lost completions) are checked
at the end; a no-progress watchdog turns livelocks into typed
failures and the engine's stall guard turns deadlocks into typed
failures.  A failing run yields a JSON-ready result carrying the full
decision trace, a stable ``(kind, detail)`` failure signature for the
shrinker, and a :class:`~repro.obs.flight.FlightRecorder` postmortem.

Fault injection composes: with a :class:`~repro.faults.FaultConfig`
attached, injected I/O errors are *tolerated* (keys whose outcome an
aborted batch left unknown become "uncertain" until the next
successful read resynchronises them) unless ``tolerate_faults`` is
off, in which case the first injected failure is the expected crash —
the known-bad scenario CI replays.
"""

from dataclasses import asdict, dataclass, fields, is_dataclass, replace

from repro.api import AsyncLsmSession, PATreeSession, ShardedSession
from repro.core.ops import DELETE, GET, PUT, OpSpec, batch_op
from repro.errors import (
    BatchError,
    IoError,
    LatchError,
    LivelockError,
    ReproError,
    SchedulerError,
    SimulationError,
    TreeError,
    WorkloadError,
)
from repro.fuzz.hooks import FuzzConfig, HookBinder, ScheduleExplorer, TraceDecider
from repro.fuzz.shrink import shrink_trace
from repro.backend import fast_test_profile
from repro.obs.flight import FlightRecorder
from repro.sim.hooks import subscribe, unsubscribe
from repro.sim.rng import RngRegistry
from repro.simos.scheduler import OsProfile

TARGETS = ("patree", "lsm", "sharded")

# The fixed shape of every fuzz run — constants, not config: a
# reproducer names a run by seed, target, size and fault spec alone.
KEYSPACE = 96
PAYLOAD_SIZE = 8
MAX_BATCH = 12
SCAN_RATE = 0.12
WINDOW = 8
SHARDS = 3
#: Deliberately small (the paper testbed has 8): with more workers
#: than cores the run queue holds real choices, which is what the
#: ``pick``/``preempt`` sites perturb.
CORES = 2
#: No read buffer: every descent hits the device, which maximises the
#: io-jitter perturbation surface and gives injected media faults
#: something to hit on the small fuzz keyspace.
BUFFER_PAGES = 0
SCHEDULER = "naive"
STALL_EVENTS = 200_000
MAX_EVENTS = 2_000_000


@dataclass(frozen=True)
class FuzzRunConfig:
    """Everything that names one fuzz run besides the seed.

    ``faults`` and ``retry`` take the same specs as
    :class:`~repro.api.SessionConfig`; with ``tolerate_faults`` on,
    injected I/O errors degrade parity tracking instead of failing the
    run.
    """

    target: str = "patree"
    n_ops: int = 200
    faults: object = None
    retry: object = None
    tolerate_faults: bool = True
    sync_oracle: bool = False
    fuzz: FuzzConfig = FuzzConfig()

    def __post_init__(self):
        if self.target not in TARGETS:
            raise WorkloadError(
                "unknown fuzz target %r (expected one of %s)"
                % (self.target, ", ".join(TARGETS))
            )


def config_jsonable(cfg):
    """A JSON-serialisable dict naming ``cfg`` (reproducer payload)."""

    def sanitize(value):
        if is_dataclass(value) and not isinstance(value, type):
            value = asdict(value)
        if isinstance(value, dict):
            return {str(k): sanitize(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [sanitize(v) for v in value]
        if value is None or isinstance(value, (bool, int, float, str)):
            return value
        return repr(value)

    return sanitize(cfg)


def config_from_jsonable(data):
    """Rebuild a :class:`FuzzRunConfig` from :func:`config_jsonable`.

    Only configs the CLI produces round-trip (``faults`` as a field
    dict or None, ``retry`` as a field dict or None); anything else
    was stored as its repr and is rejected by the session layer.
    """
    known = {f.name for f in fields(FuzzRunConfig)}
    kwargs = {k: v for k, v in data.items() if k in known}
    fuzz = kwargs.get("fuzz")
    if isinstance(fuzz, dict):
        kwargs["fuzz"] = FuzzConfig(**fuzz)
    return FuzzRunConfig(**kwargs)


def known_bad_config(base=None):
    """A config guaranteed to fail: every preloaded LBA is poisoned.

    Bulk load writes pages offline (no NVMe commands), so poison is
    not cured and the first tree read completes UNRECOVERED_READ;
    with ``tolerate_faults`` off that is a crash, composed with the
    usual schedule perturbation.  CI replays this to prove the
    explore → shrink → replay loop end to end.
    """
    cfg = base if base is not None else FuzzRunConfig()
    return replace(
        cfg,
        target="patree",
        tolerate_faults=False,
        sync_oracle=False,
        faults={"poison_ranges": ((0, 4096),)},
    )


# ----------------------------------------------------------------------
# workload
# ----------------------------------------------------------------------


def _payload(key, nonce):
    value = (key * 1_000_003 + nonce * 7_919 + 17) & 0xFFFFFFFFFFFFFFFF
    return value.to_bytes(8, "little")[:PAYLOAD_SIZE]


def make_workload(seed, cfg):
    """Deterministic (steps, preload) for one run.

    ``steps`` is a list of ``("batch", [OpSpec, ...])`` and
    ``("scan", low, high)`` entries drawn from the seed's own
    ``fuzz:workload`` stream — independent of the schedule stream, so
    explore and replay execute the identical workload.  ``preload``
    is the sorted (key, payload) set bulk-loaded before fuzzing
    starts.
    """
    rng = RngRegistry(seed).stream("fuzz:workload")
    preload = [(key, _payload(key, 0)) for key in range(3, KEYSPACE, 3)]
    steps = []
    remaining = cfg.n_ops
    nonce = 1
    while remaining > 0:
        if rng.random() < SCAN_RATE:
            a = rng.randrange(1, KEYSPACE)
            b = rng.randrange(1, KEYSPACE)
            steps.append(("scan", min(a, b), max(a, b)))
            continue
        size = min(rng.randrange(1, MAX_BATCH + 1), remaining)
        specs = []
        chosen = set()
        while len(specs) < size:
            key = rng.randrange(1, KEYSPACE)
            if key in chosen:
                # keys are distinct within a batch so per-spec parity
                # is schedule-independent (the LSM facade runs batch
                # members as concurrent per-key state machines)
                continue
            chosen.add(key)
            roll = rng.random()
            if roll < 0.5:
                specs.append(OpSpec.put(key, _payload(key, nonce)))
            elif roll < 0.85:
                specs.append(OpSpec.get(key))
            else:
                specs.append(OpSpec.delete(key))
            nonce += 1
        steps.append(("batch", specs))
        remaining -= size
    return steps, preload


# ----------------------------------------------------------------------
# machine plumbing
# ----------------------------------------------------------------------


def _build_session(seed, cfg):
    kwargs = dict(
        seed=seed,
        payload_size=PAYLOAD_SIZE,
        window=WINDOW,
        buffer_pages=BUFFER_PAGES,
        scheduler=SCHEDULER,
        device_profile=fast_test_profile(),
        os_profile=OsProfile(cores=CORES),
        faults=cfg.faults,
        retry=cfg.retry,
    )
    if cfg.target == "patree":
        return PATreeSession(**kwargs)
    if cfg.target == "lsm":
        return AsyncLsmSession(**kwargs)
    return ShardedSession(shards=SHARDS, **kwargs)


def _machine(session, target):
    """(engine, simos, devices) of a session's simulated machine."""
    if target == "sharded":
        return session.engine, session.os, list(session.sharded.devices)
    return session.env.engine, session.env.os, [session.env.device]


def _latch_tables(session, target):
    if target == "sharded":
        return [worker.latches for worker in session.sharded.engines]
    if target == "patree":
        return [session.pa_engine.latches]
    return []


class NoProgressWatchdog:
    """Raises :class:`~repro.errors.LivelockError` when the engine keeps
    dispatching events but no device completion lands for ``budget``
    consecutive dispatches — the polled-mode failure shape the stall
    guard (which needs a *drained* queue) cannot see."""

    def __init__(self, engine, budget):
        self.engine = engine
        self.budget = budget
        self._since_progress = 0

    def bind(self):
        subscribe(self.engine, "on_dispatch", self._on_dispatch)

    def unbind(self):
        unsubscribe(self.engine, "on_dispatch", self._on_dispatch)

    def progress(self):
        self._since_progress = 0

    def _on_dispatch(self, _event):
        self._since_progress += 1
        if self._since_progress > self.budget:
            raise LivelockError(
                "no completion for %d consecutive events; "
                "the schedule appears to livelock" % self.budget
            )


def _tap_completions(devices, recorder, watchdog):
    """Record completions and feed the watchdog; returns an undo fn."""

    def tap(completion):
        recorder.record_completion(
            completion.command, completion.ok, completion.status
        )
        watchdog.progress()

    for device in devices:
        subscribe(device, "on_complete", tap)

    def undo():
        for device in devices:
            unsubscribe(device, "on_complete", tap)

    return undo


# ----------------------------------------------------------------------
# oracle stepping
# ----------------------------------------------------------------------


def _mk_failure(kind, detail, message, step):
    return {
        "kind": kind,
        "detail": detail,
        "message": message,
        "step": step,
        "signature": [kind, detail],
    }


def _apply_batch(specs, results, model, uncertain, step, blind):
    """Advance the dict oracle through one executed batch.

    Keys in ``uncertain`` (their state was lost to a tolerated I/O
    failure) skip parity and are resynchronised from the observed
    result instead.  ``blind`` models the LSM write path: its puts
    and deletes are blind appends that always report True instead of
    the tree's was-new / was-present bools.  Returns a parity failure
    dict or None.
    """
    for index, (spec, got) in enumerate(zip(specs, results)):
        key = spec.key
        if spec.verb == PUT:
            if key in uncertain:
                uncertain.discard(key)
                model[key] = spec.payload
                continue
            expected = True if blind else key not in model
            model[key] = spec.payload
        elif spec.verb == GET:
            if key in uncertain:
                uncertain.discard(key)
                if got is None:
                    model.pop(key, None)
                else:
                    model[key] = got
                continue
            expected = model.get(key)
        elif spec.verb == DELETE:
            if key in uncertain:
                # the delete's bool is unknowable, but afterwards the
                # key is certainly absent
                uncertain.discard(key)
                model.pop(key, None)
                continue
            expected = True if blind else key in model
            model.pop(key, None)
        else:
            raise WorkloadError("unexpected verb %r in fuzz batch" % spec.verb)
        if got != expected:
            return _mk_failure(
                "parity",
                "%s(key=%d)" % (spec.verb, key),
                "step %d spec %d: %s(key=%d) returned %r, oracle says %r"
                % (step, index, spec.verb, key, got, expected),
                step,
            )
    return None


def _check_scan(pairs, low, high, model, uncertain, step, detail="scan"):
    """Check one scan result against the oracle.

    A scan is ground truth for its whole range: uncertain keys it
    covers are resynchronised (present pairs adopted, absent keys
    dropped) before the certain keys are compared.
    """
    got = dict(pairs)
    for key in [k for k in uncertain if low <= k <= high]:
        uncertain.discard(key)
        if key in got:
            model[key] = got[key]
        else:
            model.pop(key, None)
    expected = sorted(
        (key, value) for key, value in model.items() if low <= key <= high
    )
    if sorted(got.items()) != expected:
        return _mk_failure(
            "parity",
            detail,
            "step %d: scan [%d, %d] returned %d pair(s) that disagree "
            "with the oracle" % (step, low, high, len(got)),
            step,
        )
    return None


# ----------------------------------------------------------------------
# run / replay / explore
# ----------------------------------------------------------------------


def _classify(exc):
    """Stable (kind, detail) for an escaped typed error."""
    if isinstance(exc, LivelockError):
        return "livelock", ""
    if isinstance(exc, SchedulerError):
        if "stalled" in str(exc):
            return "deadlock", ""
        return "scheduler", type(exc).__name__
    if isinstance(exc, LatchError):
        return "latch_leak", ""
    if isinstance(exc, (BatchError, IoError)):
        return "io_error", str(getattr(exc, "status", None))
    if isinstance(exc, TreeError):
        return "invariant", type(exc).__name__
    if isinstance(exc, SimulationError):
        if "event budget" in str(exc):
            return "livelock", ""
        return "error", type(exc).__name__
    return "error", type(exc).__name__


def _final_checks(session, cfg, model, uncertain, devices, state):
    """Post-workload invariant sweep; returns a failure dict or None."""
    try:
        pairs = session.scan(0, KEYSPACE + 1)
    except (BatchError, IoError) as exc:
        if not cfg.tolerate_faults:
            raise
        state["tolerated"] += 1
        pairs = None
    if pairs is not None:
        failure = _check_scan(
            pairs, 0, KEYSPACE + 1, model, uncertain, -1,
            detail="final_scan",
        )
        if failure is not None:
            return failure
    if cfg.target in ("patree", "sharded"):
        session.validate()
    for table in _latch_tables(session, cfg.target):
        table.assert_quiescent()
    for index, device in enumerate(devices):
        outstanding = device.outstanding.value
        if outstanding:
            return _mk_failure(
                "lost_completion",
                "device=%d" % index,
                "device %d still reports %d outstanding command(s) after "
                "quiescence" % (index, outstanding),
                -1,
            )
    return None


def _sync_tree_check(seed, cfg, preload, batches, results, final_items):
    """Replay each executed batch, as a batch, under the blocking
    interpreter of the same plans: with the dict checks green, a
    disagreement here is an interpreter bug, not a plan bug."""
    from repro.baselines.io_service import DedicatedIoService
    from repro.baselines.latching import BlockingLatchTable
    from repro.baselines.runner import BaselineRunner
    from repro.baselines.sync_tree import SyncTreeAccessor
    from repro.backend import make_backend
    from repro.core.tree import PaTree
    from repro.sim.engine import Engine
    from repro.simos.scheduler import SimOS

    engine = Engine(seed=seed)
    simos = SimOS(engine, OsProfile(cores=CORES))
    backend = make_backend("sim", engine=engine, profile=fast_test_profile())
    tree = PaTree.create(backend.device, payload_size=PAYLOAD_SIZE)
    tree.bulk_load(preload)
    accessor = SyncTreeAccessor(
        tree, DedicatedIoService(backend.driver), BlockingLatchTable()
    )
    ops = [batch_op(specs) for specs in batches]
    BaselineRunner(simos, accessor, ops, n_threads=1).run_to_completion()
    oracle_results = [result for op in ops for result in op.result]
    if oracle_results != results:
        specs = [spec for batch in batches for spec in batch]
        for index, (mine, theirs) in enumerate(zip(results, oracle_results)):
            if mine != theirs:
                spec = specs[index]
                return _mk_failure(
                    "parity",
                    "sync_oracle:%s(key=%d)" % (spec.verb, spec.key),
                    "sync-tree oracle disagrees at op %d: %s(key=%d) "
                    "returned %r vs oracle %r"
                    % (index, spec.verb, spec.key, mine, theirs),
                    -1,
                )
    if dict(tree.iterate_items_raw()) != final_items:
        return _mk_failure(
            "parity",
            "sync_oracle:items",
            "final item sets diverge between the fuzzed tree and the "
            "sync-tree oracle",
            -1,
        )
    return None


def run_one(seed, cfg, decider=None):
    """Execute one fuzzed run; never raises for in-scope failures.

    ``decider`` defaults to a fresh :class:`ScheduleExplorer` on the
    seed's ``fuzz:schedule`` stream; pass a :class:`TraceDecider` to
    replay a recorded trace.  Returns a JSON-ready dict with ``ok``,
    an optional ``failure`` (kind / detail / signature / postmortem)
    and the full decision ``trace``.
    """
    if decider is None:
        decider = ScheduleExplorer(
            cfg.fuzz, RngRegistry(seed).stream("fuzz:schedule")
        )
    steps, preload = make_workload(seed, cfg)
    session = _build_session(seed, cfg)
    engine, simos, devices = _machine(session, cfg.target)
    engine.max_events = MAX_EVENTS
    recorder = FlightRecorder(engine.clock, capacity=128)
    watchdog = NoProgressWatchdog(engine, STALL_EVENTS)
    binder = HookBinder(decider)
    model = {}
    uncertain = set()
    state = {"ops": 0, "tolerated": 0}
    executed_batches = []
    executed_results = []
    failure = None
    error = None
    untap = None
    try:
        session.bulk_load(preload)
        model.update(preload)
        watchdog.bind()
        untap = _tap_completions(devices, recorder, watchdog)
        binder.bind(simos=simos, devices=devices)
        try:
            for step_index, step in enumerate(steps):
                if step[0] == "scan":
                    _kind, low, high = step
                    try:
                        pairs = session.scan(low, high)
                    except (BatchError, IoError):
                        if not cfg.tolerate_faults:
                            raise
                        state["tolerated"] += 1
                        continue
                    failure = _check_scan(
                        pairs, low, high, model, uncertain, step_index
                    )
                else:
                    _kind, specs = step
                    state["ops"] += len(specs)
                    try:
                        # the planned batch pipeline: one shared
                        # descent, vectored groups, results in input
                        # order — the same contract the oracle models
                        got = session._run_batch(list(specs))
                    except (BatchError, IoError):
                        if not cfg.tolerate_faults:
                            raise
                        # an aborted batch leaves every key's state
                        # unknown until the next successful read
                        state["tolerated"] += 1
                        uncertain.update(spec.key for spec in specs)
                        continue
                    executed_batches.append(specs)
                    executed_results.extend(got)
                    failure = _apply_batch(
                        specs, got, model, uncertain, step_index,
                        blind=cfg.target == "lsm",
                    )
                if failure is not None:
                    break
            if failure is None:
                failure = _final_checks(
                    session, cfg, model, uncertain, devices, state
                )
            if (
                failure is None
                and cfg.sync_oracle
                and cfg.target == "patree"
                and cfg.faults is None
            ):
                failure = _sync_tree_check(
                    seed,
                    cfg,
                    preload,
                    executed_batches,
                    executed_results,
                    dict(session.tree.iterate_items_raw()),
                )
        except ReproError as exc:
            error = exc
            kind, detail = _classify(exc)
            failure = _mk_failure(kind, detail, str(exc), -1)
    finally:
        binder.unbind()
        watchdog.unbind()
        if untap is not None:
            untap()
        try:
            session.close()
        except ReproError:
            pass
    if failure is not None:
        failure["postmortem"] = recorder.postmortem(
            error if error is not None else ReproError(failure["message"])
        )
    return {
        "seed": seed,
        "target": cfg.target,
        "ok": failure is None,
        "failure": failure,
        "ops": state["ops"],
        "steps": len(steps),
        "tolerated_faults": state["tolerated"],
        "decisions": len(decider.trace),
        "virtual_time_us": engine.clock.now_usec,
        "trace": list(decider.trace),
    }


def replay(seed, cfg, trace):
    """Re-run a (seed, config) pair under a recorded decision trace."""
    return run_one(seed, cfg, decider=TraceDecider(trace))


def explore(cfg, seeds):
    """Explore one schedule per seed; shrink and verify any failures.

    Returns a JSON-ready report: per-seed verdict rows plus, for each
    failure, the shrunk reproducer (seed + minimal decision trace +
    config) and its replay verification.
    """
    rows = []
    failures = []
    for seed in seeds:
        result = run_one(seed, cfg)
        rows.append(
            {
                "seed": seed,
                "target": cfg.target,
                "ok": result["ok"],
                "kind": result["failure"]["kind"] if result["failure"] else "",
                "ops": result["ops"],
                "tolerated_faults": result["tolerated_faults"],
                "decisions": result["decisions"],
                "virtual_time_us": result["virtual_time_us"],
            }
        )
        if result["failure"] is None:
            continue
        entry = dict(result["failure"])
        entry["seed"] = seed
        signature = entry["signature"]
        trace = result["trace"]
        shrunk, replays = shrink_trace(
            lambda t: replay(seed, cfg, t), trace, signature
        )
        verification = replay(seed, cfg, shrunk)
        entry["reproducer"] = {
            "seed": seed,
            "target": cfg.target,
            "config": config_jsonable(cfg),
            "trace": shrunk,
            "signature": signature,
        }
        entry["shrink"] = {
            "original_decisions": len(trace),
            "shrunk_decisions": len(shrunk),
            "replays": replays,
            "verified": (
                verification["failure"] is not None
                and verification["failure"]["signature"] == signature
            ),
        }
        failures.append(entry)
    return {
        "target": cfg.target,
        "config": config_jsonable(cfg),
        "seeds": [int(seed) for seed in seeds],
        "seeds_explored": len(rows),
        "failures_found": len(failures),
        "results": rows,
        "failures": failures,
    }
