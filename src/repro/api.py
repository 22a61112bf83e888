"""Public synchronous facade.

Most users want a B+ tree they can call, not a simulation they must
wire.  The session classes here package a simulated machine (event
engine, OS model, one or more NVMe devices), the index structure and
its polled working thread(s) behind blocking calls: each call (or
batch) drives the discrete-event simulation until the operations
complete, then returns their results — so examples read like ordinary
database code while every access still flows through the full
polled-mode asynchronous machinery.

All sessions share one shape:

* construction from a :class:`SessionConfig` (or the equivalent
  keyword arguments — both spellings work and may be mixed, keywords
  winning),
* a batch-first data plane: :meth:`~BaseSession.put_many` /
  :meth:`~BaseSession.get_many` / :meth:`~BaseSession.delete_many`
  vector whole key sets through one planned batch operation (keys
  grouped by target leaf during a shared descent, one latch
  acquisition per group, sibling page writes coalesced into vectored
  device commands); the single-op verbs ``put`` / ``get`` /
  ``delete`` are size-1 batches over the same code path, and
  :meth:`~BaseSession.scan` walks a key range,
* a canonical :meth:`~BaseSession.execute` contract over
  :class:`~repro.core.ops.OpSpec` records returning
  :class:`~repro.core.ops.OpResult` records (raw
  :class:`~repro.core.ops.Operation` lists — the historical
  spelling — still work),
* context-manager support (``with PATreeSession(seed=7) as s: ...``)
  and an idempotent :meth:`~BaseSession.close`,
* dict-style sugar: ``s[key] = payload``, ``s[key]``, ``key in s``,
* a ``stats()`` snapshot on every session that returns a **fresh dict on
  every call** whose counters are **cumulative** over the session's
  lifetime (diff two snapshots to measure one batch).

Three sessions exist: :class:`PATreeSession` (one PA-Tree on one
device), :class:`AsyncLsmSession` (the PA-LSM extension on one
device), and :class:`ShardedSession` (a hash- or range-sharded fleet
of PA-Trees, one device per shard — see ``repro.shard``).

For experiments that need explicit control (custom policies, baseline
paradigms, open-loop arrival), use the underlying pieces directly; the
benchmark harness in ``repro.bench`` shows how.
"""

from dataclasses import dataclass, replace

from repro.backend import make_backend
from repro.buffer import make_buffer
from repro.core.engine import (
    PERSISTENCE_STRONG,
    PERSISTENCE_WEAK,
    PaTreeEngine,
)
from repro.core.ops import (
    OpResult,
    OpSpec,
    batch_op,
    range_op,
    sync_op,
    update_op,
)
from repro.core.source import ClosedLoopSource
from repro.core.tree import PaTree, check_bulk_items
from repro.errors import BatchError, ReproError, WorkloadError
from repro.backend import i3_nvme_profile
from repro.sched import make_scheduler
from repro.sim.engine import Engine
from repro.simos.scheduler import SimOS, paper_testbed_profile


@dataclass(frozen=True)
class SessionConfig:
    """Declarative configuration shared by every session facade.

    Parameters
    ----------
    seed:
        Simulation seed (full determinism).
    payload_size:
        Bytes per value (8 by default, as in the paper's YCSB setup).
    persistence:
        ``"strong"`` (every update durable on completion; read-only
        buffering) or ``"weak"`` (write-back buffer + explicit
        ``sync``).
    buffer_pages:
        Buffer capacity in pages (per shard for sharded sessions);
        0 disables buffering (strong mode only).
    scheduler:
        ``"workload_aware"`` (Algorithm 2; trains/caches the probe
        model on first use) or ``"naive"`` (Algorithm 1).
    window:
        Closed-loop in-flight window — how many concurrent callers
        the session models (aggregate across shards).
    device_profile / os_profile:
        Hardware calibration; defaults model the paper's testbed.
    memtable_entries:
        LSM sessions only: memtable flush threshold.
    shards / partitioning:
        Sharded sessions only: shard count and ``"hash"`` or
        ``"range"`` key placement.
    faults:
        Deterministic fault injection: a
        :class:`~repro.faults.FaultConfig` (or an equivalent dict of
        its fields), or None (the default) for a fault-free device.
        Sharded sessions build one injector per shard device, each
        drawing from its own seeded stream.
    retry:
        Driver-level :class:`~repro.nvme.driver.RetryPolicy` (or an
        equivalent dict of its fields) applied to transient media
        errors; None (the default) selects the driver's default
        bounded policy.
    backend:
        I/O substrate spec (see :mod:`repro.backend`): ``None`` (the
        process default — the simulated NVMe device unless
        ``repro.bench --backend`` overrode it), ``"sim"``, ``"file"``
        / ``"file:<path>"``, ``"replay:<trace>"``, a
        :class:`~repro.backend.BackendSpec`, or a built
        :class:`~repro.backend.IoBackend`.  Unknown names raise
        :class:`~repro.errors.BackendConfigError`.  Sharded sessions
        build one such device per shard from the one spec (a per-shard
        list is rejected like any other unknown spelling).
    """

    seed: int = 0
    payload_size: int = 8
    persistence: str = PERSISTENCE_STRONG
    buffer_pages: int = 4096
    scheduler: str = "workload_aware"
    window: int = 64
    device_profile: object = None
    os_profile: object = None
    memtable_entries: int = 1_000
    shards: int = 4
    partitioning: str = "hash"
    faults: object = None
    retry: object = None
    backend: object = None

    def merged(self, **overrides):
        """A copy with ``overrides`` applied (unknown names raise)."""
        return replace(self, **overrides)


class SimEnvironment:
    """One simulated machine: event engine, OS, and one I/O backend.

    The backend (``repro.backend``) carries the device model and the
    driver bound to it; ``self.device`` / ``self.driver`` stay exposed
    for observability attachment and tests.
    """

    def __init__(
        self, seed=0, device_profile=None, os_profile=None, faults=None,
        retry=None, backend=None,
    ):
        self.engine = Engine(seed=seed)
        self.os = SimOS(self.engine, os_profile or paper_testbed_profile())
        self.device_profile = device_profile or i3_nvme_profile()
        self.backend = make_backend(
            backend,
            engine=self.engine,
            profile=device_profile,
            faults=faults,
            retry=retry,
        )
        self.device = self.backend.device
        self.driver = self.backend.driver

    def close(self):
        self.backend.close()

    @property
    def now_usec(self):
        return self.engine.clock.now_usec


class BaseSession:
    """Common machinery of every blocking session facade.

    Subclasses set ``default_config`` (their knob defaults) and
    implement ``_build(config)``, which also sets ``self._runner`` —
    the engine, worker or router whose ``run_operations`` drives raw
    operations.  The base class provides everything else:
    configuration merging (a ``SessionConfig`` and/or keyword
    overrides), the batch-first verbs (single ops are size-1 batches),
    the :class:`~repro.core.ops.OpSpec` execute contract, ``close()``
    / context-manager support, and the dict-style sugar.
    """

    default_config = SessionConfig()

    def __init__(self, config=None, **overrides):
        if config is None:
            config = self.default_config
        elif not isinstance(config, SessionConfig):
            raise ReproError(
                "config must be a SessionConfig, not %r" % (config,)
            )
        if overrides:
            try:
                config = config.merged(**overrides)
            except TypeError as exc:
                raise ReproError(str(exc)) from None
        if config.window < 1:
            raise WorkloadError("window must be positive")
        self.config = config
        self.window = config.window
        self.closed = False
        self._build(config)

    # -- lifecycle -----------------------------------------------------

    def _build(self, config):
        raise NotImplementedError

    def close(self):
        """Mark the session closed; further data-plane calls raise.

        Idempotent.  Weak-persistence sessions flush their dirty tail
        first so the simulated media holds every acknowledged update.
        """
        if self.closed:
            return
        if self.config.persistence == PERSISTENCE_WEAK:
            self.sync()
        self.closed = True
        self._teardown()

    def _teardown(self):
        """Release backend resources."""
        self.env.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    def _check_open(self):
        if self.closed:
            raise ReproError("session is closed")

    # -- data plane (canonical execute contract) -----------------------

    def execute(self, operations):
        """Run a batch of specs (or raw operations) to completion.

        Two input shapes are accepted:

        * a list of :class:`~repro.core.ops.OpSpec` records — the
          canonical contract.  Returns a matching list of
          :class:`~repro.core.ops.OpResult` records in input order;
          per-operation failures are carried in ``result.error``,
          never raised.
        * a list of raw :class:`~repro.core.ops.Operation` objects
          (the historical spelling) — returned as-is with
          ``op.result`` / ``op.error`` filled in.

        Mixing the two shapes in one call raises
        :class:`~repro.errors.ReproError`.  The single-operation and
        ``*_many`` verbs below *do* raise on failure.
        """
        self._check_open()
        items = list(operations)
        spec_flags = [isinstance(item, OpSpec) for item in items]
        if any(spec_flags):
            if not all(spec_flags):
                raise ReproError(
                    "execute() cannot mix OpSpec and Operation inputs"
                )
            ops = [spec.to_operation() for spec in items]
            self._execute_ops(ops)
            return [
                OpResult(spec.verb, spec.key, op.result, op.error)
                for spec, op in zip(items, ops)
            ]
        return self._execute_ops(items)

    def _execute_ops(self, operations):
        """Drive raw operations through the engine; returns them."""
        self._check_open()
        return self._runner.run_operations(operations, window=self.window)

    @staticmethod
    def _result(op):
        """Single-op verbs surface a failed op's typed error by raising."""
        if op.error is not None:
            raise op.error
        return op.result

    # -- batch pipeline ------------------------------------------------

    def _run_batch(self, specs):
        """Run specs as one planned batch operation.

        Returns the per-spec result vector; raises
        :class:`~repro.errors.BatchError` naming the failing spec when
        an I/O failure aborts the batch.
        """
        specs = list(specs)
        if not specs:
            return []
        op = batch_op(specs)
        self._execute_ops([op])
        if op.error is not None:
            index = op.cursor if 0 <= op.cursor < len(specs) else 0
            raise self._batch_error(op.error, specs[index], index)
        return op.result

    def _single(self, spec):
        """Single-op verbs are size-1 batches: one code path end to end."""
        op = batch_op([spec])
        self._execute_ops([op])
        if op.error is not None:
            raise op.error
        return op.result[0]

    @staticmethod
    def _batch_error(cause, spec, index):
        """Wrap a mid-batch failure, naming the spec it stopped at."""
        error = BatchError(
            "batch aborted at %s(key=%d): %s" % (spec.verb, spec.key, cause),
            status=getattr(cause, "status", None),
            opcode=getattr(cause, "opcode", None),
            lba=getattr(cause, "lba", None),
            key=spec.key,
            index=index,
        )
        error.__cause__ = cause
        return error

    def put_many(self, items):
        """Vectored upsert of (key, payload) pairs.

        Returns one bool per pair in input order (True when the key
        was new).  Keys are sorted and grouped by target leaf during
        one shared descent; each leaf is latched once per group, the
        group is applied as one vectored in-node operation and sibling
        page writes coalesce into vectored device commands — far fewer
        latch round-trips and doorbells than per-key calls.
        """
        return self._run_batch(
            [OpSpec.put(key, payload) for key, payload in items]
        )

    def get_many(self, keys):
        """Vectored point lookup; one payload-or-None per key."""
        return self._run_batch([OpSpec.get(key) for key in keys])

    def delete_many(self, keys):
        """Vectored delete; one was-present bool per key."""
        return self._run_batch([OpSpec.delete(key) for key in keys])

    # -- single-op verbs (size-1 batches) ------------------------------

    def put(self, key, payload):
        """Upsert; returns True when the key was new."""
        return self._single(OpSpec.put(key, payload))

    def get(self, key):
        """Point lookup; returns the payload bytes or None."""
        return self._single(OpSpec.get(key))

    def delete(self, key):
        """Remove a key; returns True when it was present."""
        return self._single(OpSpec.delete(key))

    def scan(self, low, high, limit=0):
        """All (key, payload) pairs with low <= key <= high."""
        (op,) = self._execute_ops([range_op(low, high, limit=limit)])
        return self._result(op)

    def update(self, key, payload):
        """Overwrite an existing key; returns True when found."""
        (op,) = self._execute_ops([update_op(key, payload)])
        return self._result(op)

    def sync(self):
        """Flush buffered updates (weak persistence); returns count."""
        (op,) = self._execute_ops([sync_op()])
        return self._result(op)

    # -- dict-style sugar ----------------------------------------------

    def _get(self, key):
        return self.get(key)

    def _put(self, key, payload):
        self.put(key, payload)

    def __getitem__(self, key):
        value = self._get(key)
        if value is None:
            raise KeyError(key)
        return value

    def __setitem__(self, key, payload):
        self._put(key, payload)

    def __contains__(self, key):
        return self._get(key) is not None

    # -- introspection -------------------------------------------------

    def attach_metrics(self, **session_kwargs):
        """Attach a new :class:`~repro.obs.MetricsSession` to this session.

        Builds one (forwarding ``session_kwargs`` — scrape interval,
        flight-recorder capacity), wires it into this
        session's stack and returns it.  The caller still owns the
        lifecycle: ``session.start()`` before the workload,
        ``session.finish()`` after.  A session that is never attached
        costs nothing.
        """
        from repro.obs.health import MetricsSession

        session = MetricsSession(self.env.engine, **session_kwargs)
        session.attach_device(self.env.device)
        return session.attach_worker(self._runner)


class PATreeSession(BaseSession):
    """Blocking convenience wrapper around a PA-Tree on one device.

    Accepts a :class:`SessionConfig` or the historical keyword
    arguments (``seed``, ``payload_size``, ``persistence``,
    ``buffer_pages``, ``scheduler``, ``window``, ``device_profile``,
    ``os_profile``); keywords override config fields.
    """

    default_config = SessionConfig()

    def _build(self, config):
        self.env = SimEnvironment(
            config.seed,
            config.device_profile,
            config.os_profile,
            faults=config.faults,
            retry=config.retry,
            backend=config.backend,
        )
        self.tree = PaTree.create(
            self.env.device, payload_size=config.payload_size
        )
        self._runner = self.pa_engine = PaTreeEngine(
            self.env.os,
            self.env.backend,
            self.tree,
            make_scheduler(config.scheduler, self.env.device_profile),
            source=ClosedLoopSource([], window=config.window),
            buffer=make_buffer(config.persistence, config.buffer_pages),
        )

    # ------------------------------------------------------------------
    # data plane
    # ------------------------------------------------------------------

    def bulk_load(self, items):
        """Offline bottom-up build from sorted unique (key, bytes) pairs."""
        self._check_open()
        self.tree.bulk_load(items)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def __len__(self):
        return self.tree.meta.key_count

    def stats(self):
        """Engine + device statistics for the session so far.

        A fresh dict every call, with cumulative counters: they
        accumulate over the whole session, not per batch, so callers
        wanting a per-batch window diff two snapshots.  Mutating a
        returned dict never affects later calls.
        """
        stats = self.pa_engine.stats()
        device = self.env.device
        stats["device_reads"] = device.reads_completed.value
        stats["device_writes"] = device.writes_completed.value
        stats["device_errors"] = device.errors_completed.value
        if device.fault_injector is not None:
            stats["faults"] = device.fault_injector.stats()
        stats["virtual_time_us"] = self.env.now_usec
        return stats

    def validate(self):
        """Verify every on-media structural invariant of the tree."""
        return self.tree.validate()


class AsyncLsmSession(BaseSession):
    """Blocking convenience wrapper around the PA-LSM extension.

    The same facade shape as :class:`PATreeSession`, over the
    polled-mode asynchronous LSM store (``repro.palsm``): point and
    range reads, upserts, deletes and ``sync`` against one simulated
    device, with memtable flushes and compactions interleaved by the
    single polled working thread.
    """

    default_config = SessionConfig(scheduler="naive", buffer_pages=0)

    def _build(self, config):
        from repro.baselines.lsm import LeveledStore, LsmConfig
        from repro.palsm import PolledLsmWorker

        self.env = SimEnvironment(
            config.seed,
            config.device_profile,
            config.os_profile,
            faults=config.faults,
            retry=config.retry,
            backend=config.backend,
        )
        self.store = LeveledStore(
            self.env.device,
            LsmConfig(memtable_entries=config.memtable_entries),
            config.persistence,
        )
        self._runner = self.worker = PolledLsmWorker(
            self.env.os,
            self.env.backend,
            self.store,
            make_scheduler(config.scheduler, self.env.device_profile),
            ClosedLoopSource([], window=config.window),
        )

    def bulk_load(self, items):
        """Offline build of level-1 runs from unique (key, bytes) pairs.

        Unlike the tree sessions the input may arrive unsorted (runs
        are built from the sorted view), but duplicate keys are
        rejected with the same typed :class:`~repro.errors.BulkLoadError`.
        """
        self._check_open()
        self.store.bulk_load(check_bulk_items(sorted(items)))
        self.store.resize_block_cache(max(self.store.data_pages() // 10, 64))

    # The LSM worker executes per-key state machines — there is no
    # shared-descent batch plan to vector through — so the batch verbs
    # map spec-wise onto single operations with the same contract.

    def _run_batch(self, specs):
        specs = list(specs)
        if not specs:
            return []
        ops = [spec.to_operation() for spec in specs]
        self._execute_ops(ops)
        for index, (spec, op) in enumerate(zip(specs, ops)):
            if op.error is not None:
                raise self._batch_error(op.error, spec, index)
        return [op.result for op in ops]

    def _single(self, spec):
        (op,) = self._execute_ops([spec.to_operation()])
        return self._result(op)

    def stats(self):
        """Worker statistics; fresh dict per call, cumulative counters."""
        stats = self.worker.stats()
        device = self.env.device
        stats["device_errors"] = device.errors_completed.value
        if device.fault_injector is not None:
            stats["faults"] = device.fault_injector.stats()
        stats["virtual_time_us"] = self.env.now_usec
        return stats


class ShardedSession(BaseSession):
    """Blocking facade over a sharded multi-device PA-Tree fleet.

    ``config.shards`` independent (device, driver, tree, polled
    worker) stacks run on one simulated machine; a router splits each
    batch by key (``config.partitioning``: ``"hash"`` or ``"range"``),
    fans out the closed-loop window, merges cross-shard range scans in
    key order and broadcasts ``sync``.  See ``repro.shard`` for the
    underlying router.
    """

    default_config = SessionConfig(scheduler="naive", buffer_pages=0)

    def _build(self, config):
        from repro.shard import ShardedPaTree

        self.engine = Engine(seed=config.seed)
        self.os = SimOS(self.engine, config.os_profile or paper_testbed_profile())
        device_profile = config.device_profile or i3_nvme_profile()
        self._runner = self.sharded = ShardedPaTree(
            self.os,
            config.shards,
            partitioning=config.partitioning,
            payload_size=config.payload_size,
            policy_factory=lambda: make_scheduler(
                config.scheduler, device_profile
            ),
            persistence=config.persistence,
            buffer_pages_per_shard=config.buffer_pages,
            device_profile=device_profile,
            faults=config.faults,
            retry=config.retry,
            backend=config.backend,
        )

    def _teardown(self):
        self.sharded.close()

    @property
    def now_usec(self):
        return self.engine.clock.now_usec

    def bulk_load(self, items):
        """Offline build across all shards from sorted unique pairs."""
        self._check_open()
        self.sharded.bulk_load(items)

    def __len__(self):
        return self.sharded.key_count

    def stats(self):
        """Aggregate + per-shard statistics (fresh dict, cumulative).

        The fault-injector rollup (``stats()["faults"]``) now comes
        from :meth:`repro.shard.ShardedPaTree.stats` alongside the
        ``*_total`` error/retry rollups.
        """
        stats = self.sharded.stats()
        stats["virtual_time_us"] = self.now_usec
        return stats

    def attach_metrics(self, **session_kwargs):
        """Wire a new metrics session across every shard and the router."""
        from repro.obs.health import MetricsSession

        return MetricsSession(self.engine, **session_kwargs).attach_sharded(
            self.sharded
        )

    def validate(self):
        """Validate every shard tree; returns aggregate statistics."""
        return self.sharded.validate()
