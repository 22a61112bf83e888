"""Sharded PA-Tree: N polled workers behind one router, two placements.

The paper shows one polled working thread saturating one NVMe SSD and
sketches "one or a few working threads" for the CPU-bound (buffered)
case.  This module is that sketch, written once: the key space is
hash- or range-partitioned across N shards, each an independent
``(PaTree, PaTreeEngine)`` with its own queue pair, latch table, buffer
and polled working thread — all on the shared
:class:`~repro.simos.scheduler.SimOS`, so the whole fleet runs inside
one deterministic simulation.  Where the shards' pages live follows
from the ``backend`` argument:

* a backend *spec* builds one device per shard — scale-*out*; shards
  share nothing, so aggregate throughput grows with shard count until
  the machine runs out of cores;
* a *built* :class:`~repro.backend.IoBackend` is the one device every
  shard shares — scale-*up*; shard *i* formats its tree on the disjoint
  LBA region ``[i * region, (i + 1) * region)`` and allocates its own
  queue pair, so workers still share no state but the device, which
  helps exactly while one worker is CPU-bound and stops at device
  saturation (the partitions ablation).

Either way the paradigm's no-inter-thread-synchronization property is
preserved.  A zero-shared-state router splits incoming operation
batches per shard, fans out a closed-loop admission window, scatters
cross-shard range scans (and broadcast ``sync``), gathers their partial
results in key order, and aggregates per-shard engine statistics with
each distinct device counted once.  The observability hooks from
``repro.obs`` attach per shard, so one :class:`~repro.obs.TraceSession`
records the whole fleet.
"""

import bisect
import heapq
from collections import deque

from repro.buffer import make_buffer
from repro.core.engine import PERSISTENCE_STRONG, PaTreeEngine
from repro.core.ops import BATCH, RANGE, SYNC, batch_op, range_op, sync_op
from repro.core.source import OperationSource
from repro.core.tree import PaTree, check_bulk_items
from repro.backend import (
    IoBackend,
    BackendSpec,
    make_backend,
    normalize_backend_spec,
)
from repro.errors import SchedulerError, WorkloadError
from repro.backend import i3_nvme_profile
from repro.sched import NaiveScheduling
from repro.sim.metrics import LatencyRecorder

HASH_PARTITIONING = "hash"
RANGE_PARTITIONING = "range"

_MASK64 = (1 << 64) - 1


def shard_mix64(key):
    """SplitMix64 finalizer: spreads strided keys uniformly over 64 bits.

    Workload key populations are often strided (the YCSB preload keys
    sit on a 2^20 stride), so ``key % n`` would put every key on one
    shard; a full-avalanche mix makes hash placement balanced and —
    because it is pure arithmetic — deterministic across runs.
    """
    z = (key + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class _ShardSource(OperationSource):
    """Pull queue one shard's worker polls; the router fills it."""

    def __init__(self, router):
        self._router = router
        self.pending = deque()
        self.inflight = 0

    def poll(self, now_ns):
        batch = []
        while self.pending:
            batch.append(self.pending.popleft())
            self.inflight += 1
        return batch

    def on_op_complete(self, op):
        self.inflight -= 1
        self._router._on_shard_complete(op)

    def exhausted(self):
        return self._router._drained and not self.pending and self.inflight == 0


class _GatherState:
    """Tracks a scattered operation until every part returns."""

    __slots__ = ("parent", "parts", "remaining")

    def __init__(self, parent, parts):
        self.parent = parent
        self.parts = parts
        self.remaining = len(parts)


class ShardedPaTree:
    """N independent PA-Trees, one polled worker each, behind one router.

    Parameters
    ----------
    simos:
        The shared simulated OS every shard's worker thread runs on.
    n_shards:
        Number of shards (trees, workers, queue pairs).
    partitioning:
        ``"hash"`` (default; uniform placement, range scans broadcast)
        or ``"range"`` (contiguous key slices, range scans touch only
        the covered shards).
    policy_factory:
        Zero-argument callable building one scheduling policy per
        shard (a policy binds to exactly one engine).
    device_profile:
        :class:`~repro.nvme.device.DeviceProfile` shared by all shard
        devices (profiles are immutable calibration constants).  Each
        device still draws service times from its own named RNG
        stream, so shards are stochastically independent.
    backend:
        One backend spec (see :mod:`repro.backend`) builds a device per
        shard; file backends with an explicit path get a ``.shard<i>``
        suffix per shard so scratch files never collide.  A *built*
        :class:`~repro.backend.IoBackend` is instead shared by every
        shard, each on its own ``capacity_pages // n_shards`` region
        with its own queue pair (``device_profile`` / ``faults`` /
        ``retry`` are then the backend's own).  ``backends`` /
        ``devices`` list the distinct ones: N, or 1 when shared.
    """

    def __init__(
        self,
        simos,
        n_shards,
        partitioning=HASH_PARTITIONING,
        payload_size=8,
        policy_factory=None,
        persistence=PERSISTENCE_STRONG,
        buffer_pages_per_shard=0,
        device_profile=None,
        qpair_size=4096,
        faults=None,
        retry=None,
        backend=None,
    ):
        if n_shards < 1:
            raise SchedulerError("need at least one shard")
        if partitioning not in (HASH_PARTITIONING, RANGE_PARTITIONING):
            raise SchedulerError("unknown partitioning %r" % (partitioning,))
        self.simos = simos
        self.engine = simos.engine
        self.n_shards = n_shards
        self.partitioning = partitioning
        self.persistence = persistence
        if policy_factory is None:
            policy_factory = NaiveScheduling
        self.device_profile = device_profile or i3_nvme_profile()
        # default range split: equal slices of the 64-bit key space,
        # rebalanced to population quantiles at bulk_load time
        self._split_keys = [
            ((1 << 64) // n_shards) * i for i in range(1, n_shards)
        ]

        backend_spec = normalize_backend_spec(backend)
        # a built backend is the one device all shards share: shard i
        # formats its tree on pages [i * region, (i + 1) * region); a
        # spec (region 0) gives every shard a whole device of its own
        region = (
            backend_spec.capacity_pages // n_shards
            if isinstance(backend_spec, IoBackend)
            else 0
        )
        self.backends = []
        self.trees = []
        self.engines = []
        self._sources = []
        for index in range(n_shards):
            # each shard's device builds its own injector from the
            # shared fault config, drawing from its own named stream
            shard_backend = make_backend(
                self._shard_spec(backend_spec, index),
                engine=self.engine,
                profile=self.device_profile,
                rng_name="nvme-shard-%d" % index,
                faults=faults,
                retry=retry,
            )
            tree = PaTree.create(
                shard_backend.device,
                payload_size=payload_size,
                base_lba=index * region,
                capacity_pages=region or None,
            )
            source = _ShardSource(self)
            worker = PaTreeEngine(
                simos,
                shard_backend,
                tree,
                policy_factory(),
                source=source,
                buffer=make_buffer(persistence, buffer_pages_per_shard),
                persistence=persistence,
                qpair=shard_backend.alloc_qpair(
                    sq_size=qpair_size, cq_size=qpair_size
                ),
                name="pa-shard-%d" % index,
            )
            if shard_backend not in self.backends:
                self.backends.append(shard_backend)
            self.trees.append(tree)
            self.engines.append(worker)
            self._sources.append(source)
        self.devices = [each.device for each in self.backends]

        # router state
        self._drained = True
        self._global_pending = deque()
        self._window = 0
        self._inflight = 0
        self._gathers = {}
        self._dispatch_ns = {}

        # router-level measurement (user-visible operations, counted
        # once each — scattered parts are invisible here)
        self.latencies = LatencyRecorder()
        self.user_completed = 0
        self.user_failed = 0
        self.last_user_done_ns = 0

    @staticmethod
    def _shard_spec(spec, index):
        """Derive shard ``index``'s spec from the fleet-wide one.

        File backends with an explicit scratch path get a per-shard
        suffix; every other spec is shared as-is (each shard's device
        still draws from its own RNG stream).
        """
        if (
            isinstance(spec, BackendSpec)
            and spec.kind == "file"
            and spec.options.get("path")
        ):
            options = dict(spec.options)
            options["path"] = "%s.shard%d" % (options["path"], index)
            return BackendSpec("file", **options)
        return spec

    def close(self):
        """Release every distinct backend's host-side resources."""
        for shard_backend in self.backends:
            shard_backend.close()

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------

    def shard_for(self, key):
        """The shard index that owns ``key``."""
        if self.partitioning == RANGE_PARTITIONING:
            return bisect.bisect_right(self._split_keys, key)
        return shard_mix64(key) % self.n_shards

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------

    def bulk_load(self, items, fill_factor=0.7):
        """Offline build from sorted unique (key, payload) pairs.

        Range mode re-derives the split keys from the population's
        quantiles so preloaded shards are balanced; hash mode scatters
        by the mix (each shard's slice of a sorted stream stays
        sorted, so per-shard bulk loads remain bottom-up builds).
        """
        items = check_bulk_items(items)
        if self.partitioning == RANGE_PARTITIONING:
            if items and self.n_shards > 1:
                step = len(items) // self.n_shards
                self._split_keys = [
                    items[step * i][0] for i in range(1, self.n_shards)
                ]
            start = 0
            for index in range(self.n_shards):
                end = (
                    bisect.bisect_left(items, (self._split_keys[index], b""))
                    if index < self.n_shards - 1
                    else len(items)
                )
                self.trees[index].bulk_load(items[start:end], fill_factor)
                start = end
            return
        per_shard = [[] for _ in range(self.n_shards)]
        for item in items:
            per_shard[self.shard_for(item[0])].append(item)
        for tree, shard_items in zip(self.trees, per_shard):
            tree.bulk_load(shard_items, fill_factor)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    def _dispatch(self, op):
        if op.kind == SYNC:
            self._scatter(
                op,
                [sync_op() for _ in range(self.n_shards)],
                list(range(self.n_shards)),
            )
            return
        if op.kind == RANGE:
            self._dispatch_range(op)
            return
        if op.kind == BATCH:
            self._dispatch_batch(op)
            return
        self._sources[self.shard_for(op.key)].pending.append(op)

    def _dispatch_batch(self, op):
        """Fan a batched operation out by shard key.

        Each shard receives one sub-batch carrying the parent indices
        of its specs (``spec_indices``), so the gather can merge the
        per-shard result vectors back into input order.
        """
        groups = {}
        for index, spec in enumerate(op.specs or ()):
            groups.setdefault(self.shard_for(spec.key), []).append(index)
        if len(groups) <= 1:
            target = next(iter(groups)) if groups else 0
            self._sources[target].pending.append(op)
            return
        parts = []
        targets = []
        for shard in sorted(groups):
            indices = groups[shard]
            part = batch_op([op.specs[i] for i in indices])
            part.spec_indices = indices
            parts.append(part)
            targets.append(shard)
        self._scatter(op, parts, targets)

    def _dispatch_range(self, op):
        if self.partitioning == HASH_PARTITIONING:
            # every shard may hold keys from [low, high]: broadcast,
            # each shard returns its (sorted) matches, merge in order
            if self.n_shards == 1:
                self._sources[0].pending.append(op)
                return
            parts = [
                range_op(op.key, op.high_key, limit=op.limit)
                for _ in range(self.n_shards)
            ]
            self._scatter(op, parts, list(range(self.n_shards)))
            return
        low_shard = self.shard_for(op.key)
        high_shard = self.shard_for(op.high_key)
        if low_shard >= high_shard:
            # one shard covers it; an inverted scan (low > high) covers
            # nothing, and that shard's tree answers [] as a lone tree does
            self._sources[low_shard].pending.append(op)
            return
        parts = []
        targets = []
        for index in range(low_shard, high_shard + 1):
            low = op.key if index == low_shard else self._split_keys[index - 1]
            high = (
                op.high_key
                if index == high_shard
                else self._split_keys[index] - 1
            )
            parts.append(range_op(low, high, limit=op.limit))
            targets.append(index)
        self._scatter(op, parts, targets)

    def _scatter(self, parent, parts, targets):
        state = _GatherState(parent, parts)
        for part in parts:
            self._gathers[id(part)] = state
        for part, target in zip(parts, targets):
            self._sources[target].pending.append(part)

    def _on_shard_complete(self, op):
        state = self._gathers.pop(id(op), None)
        if state is not None:
            state.remaining -= 1
            if state.remaining:
                return
            parent = state.parent
            for part in state.parts:
                if part.error is not None:
                    # a failed part poisons the gathered result: the
                    # parent carries the first shard error observed
                    parent.error = part.error
                    break
            if parent.kind == RANGE:
                # per-shard results are sorted; a k-way merge restores
                # global key order (range partitioning scatters in
                # shard order, so its parts are already concatenable,
                # but the merge is correct and cheap for both modes)
                merged = list(
                    heapq.merge(*(part.result or () for part in state.parts))
                )
                if parent.limit:
                    merged = merged[: parent.limit]
                parent.result = None if parent.error is not None else merged
            elif parent.kind == BATCH:
                # stitch per-shard result vectors back into input order
                if parent.error is not None:
                    parent.result = None
                    for part in state.parts:
                        if part.error is not None and part.spec_indices:
                            cursor = part.cursor
                            if not 0 <= cursor < len(part.spec_indices):
                                cursor = 0
                            parent.cursor = part.spec_indices[cursor]
                            break
                else:
                    merged = [None] * len(parent.specs or ())
                    for part in state.parts:
                        for local, parent_index in enumerate(part.spec_indices):
                            merged[parent_index] = part.result[local]
                    parent.result = merged
            else:  # broadcast sync: total pages flushed
                parent.result = sum(part.result or 0 for part in state.parts)
            if parent.on_complete is not None:
                parent.on_complete(parent)
            op = parent
        self._inflight -= 1
        now = self.engine.now
        if op.done_ns is None:
            op.done_ns = now
        started = self._dispatch_ns.pop(id(op), None)
        if started is not None and op.error is None:
            self.latencies.record(op.done_ns - started)
        if op.kind != SYNC:
            if op.error is None:
                self.user_completed += 1
                self.last_user_done_ns = op.done_ns
            else:
                self.user_failed += 1
        self._refill()

    def _refill(self):
        while self._inflight < self._window and self._global_pending:
            next_op = self._global_pending.popleft()
            now = self.engine.now
            next_op.admit_ns = now
            self._dispatch_ns[id(next_op)] = now
            self._inflight += 1
            self._dispatch(next_op)
        if not self._global_pending and self._inflight == 0:
            self._drained = True

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def run_operations(self, operations, window=64):
        """Run a batch across all shards to completion.

        ``window`` is the *aggregate* closed-loop admission window —
        the number of concurrent callers the whole fleet models.  The
        router fans admitted operations out to the owning shards; each
        shard's worker interleaves whatever lands on it.
        """
        if window < 1:
            raise WorkloadError("window must be positive")
        operations = list(operations)
        self._global_pending = deque(operations)
        self._window = window
        self._drained = False
        self._inflight = 0
        self._refill()
        workers = []
        for worker in self.engines:
            worker.reset_source()
            workers.append(worker.start())
        self.simos.run_until_done(workers)
        if not all(thread.done for thread in workers):
            raise SchedulerError("sharded run did not finish")
        for worker in self.engines:
            worker.latches.assert_quiescent()
        return operations

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def register_metrics(self, registry):
        """Register the fleet into a metric registry.

        Router-level rollups register unlabeled; each shard's full
        stack registers under a ``shard="<i>"`` label, so per-shard and
        aggregate views coexist in one registry.  (A worker's stack
        includes the device it submits to, so a shared device's rows
        repeat under every label: read them under one, never summed.)
        """
        registry.counter(
            "router_user_completed_total",
            fn=lambda: self.user_completed,
            help="user operations completed across all shards",
        )
        registry.counter(
            "router_user_failed_total",
            fn=lambda: self.user_failed,
            help="user operations surfaced with a typed error",
        )
        registry.gauge(
            "router_inflight_ops",
            fn=lambda: self._inflight,
            help="operations admitted through the closed-loop window",
        )
        registry.gauge(
            "router_pending_ops",
            fn=lambda: len(self._global_pending),
            help="operations queued behind the admission window",
        )
        for index in range(self.n_shards):
            self.engines[index].register_metrics(
                registry, labels={"shard": str(index)}
            )
        return registry

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def key_count(self):
        return sum(tree.meta.key_count for tree in self.trees)

    def validate(self):
        """Validate every shard tree; returns aggregate statistics."""
        stats = {"keys": 0, "nodes": 0}
        for tree in self.trees:
            part = tree.validate()
            stats["keys"] += part["keys"]
            stats["nodes"] += part["nodes"]
        return stats

    def iterate_items_raw(self):
        """All (key, payload) pairs in global key order (zero time)."""
        return heapq.merge(*(tree.iterate_items_raw() for tree in self.trees))

    @property
    def shared_device(self):
        """Whether several shards sit on one device (a built backend)."""
        return len(self.devices) < self.n_shards

    def stats(self):
        """Aggregate + per-shard statistics snapshot.

        Returns a fresh dict on every call.  All counters are
        cumulative over the router's lifetime; ``per_shard[i]`` holds
        shard *i*'s own engine counters and the top-level totals are
        their sums, so ``sum(s["completed"] for s in per_shard) ==
        completed`` always holds.  The device family (``device_*``,
        ``io_retries``, ``faults``) is read once per distinct device:
        a device one shard owns alone fills that shard's row, a shared
        device a row of its own that only the totals see.
        """
        per_shard = [
            dict(worker.stats(), shard=index)
            for index, worker in enumerate(self.engines)
        ]
        # a device one shard owns alone reports into that shard's row
        per_device = (
            [{} for _ in self.backends] if self.shared_device else per_shard
        )
        for row, shard_backend in zip(per_device, self.backends):
            row["device_reads"] = shard_backend.reads_completed.value
            row["device_writes"] = shard_backend.writes_completed.value
            row["device_errors"] = shard_backend.errors_completed.value
            row["io_retries"] = shard_backend.retries_scheduled.value
            if shard_backend.fault_injector is not None:
                row["faults"] = shard_backend.fault_injector.stats()

        def total(rows, key):
            return sum(row[key] for row in rows)

        # the retry/fault/error family, summed once and emitted both
        # bare and as explicit `_total` rollups for health tooling
        errors = {
            "device_errors": total(per_device, "device_errors"),
            "io_errors": total(per_shard, "io_errors"),
            "failed_ops": total(per_shard, "failed_ops"),
            "io_retries": total(per_device, "io_retries"),
            "io_escalations": total(per_shard, "io_escalations"),
            "lost_writes": total(per_shard, "lost_writes"),
        }
        stats = {"%s_total" % key: value for key, value in errors.items()}
        faults = [row["faults"] for row in per_device if "faults" in row]
        if faults:
            stats["faults"] = {key: total(faults, key) for key in faults[0]}
        stats.update(
            shards=self.n_shards,
            partitioning=self.partitioning,
            completed=total(per_shard, "completed"),
            user_completed=self.user_completed,
            user_failed=self.user_failed,
            probes=total(per_shard, "probes"),
            latch_waits=total(per_shard, "latch_waits"),
            device_reads=total(per_device, "device_reads"),
            device_writes=total(per_device, "device_writes"),
            **errors,
            mean_latency_us=self.latencies.mean_usec(),
            p99_latency_us=self.latencies.p99_usec(),
            per_shard=per_shard,
        )
        return stats
