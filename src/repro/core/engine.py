"""The PA-Tree working-thread engine.

The main loop (Algorithm 1/2) lives in :mod:`repro.core.worker`; this
module is the B+ tree's half of it.  The engine translates
operation-coroutine *effects* into simulated-CPU charges, latch-table
calls and driver I/O, and shepherds operations between the ready set
and the two waiting states (I/O wait and latch wait).  Optionally it
also spawns the dedicated polling thread of the PAD / PAD+ variants
(Fig 11).
"""

from collections import deque

from repro.core.batch import vector_cost_ns
from repro.core.latch import LatchTable
from repro.core.node import Node
from repro.core.ops import (
    AllocEff,
    BATCH,
    ChargeEff,
    CoupleEff,
    FreeEff,
    LatchEff,
    ReadEff,
    ST_DONE,
    ST_LATCH_WAIT,
    ST_READY,
    SYNC,
    SyncEff,
    UnlatchEff,
    UnlatchManyEff,
    WriteEff,
)
from repro.core.plans import make_plan
from repro.core.worker import PolledWorker
from repro.errors import SchedulerError, TreeError
from repro.nvme.command import Completion, OP_READ
from repro.sim.hooks import subscribe
from repro.sim.metrics import (
    CPU_NVME,
    CPU_REAL_WORK,
    CPU_SCHED,
    CPU_SYNC,
    Counter,
)

PERSISTENCE_STRONG = "strong"
PERSISTENCE_WEAK = "weak"

POLLER_NONE = None
POLLER_CONTINUOUS = "continuous"  # PAD-Tree
POLLER_MODEL = "model"  # PAD+-Tree

_NODE_CACHE_LIMIT = 1_000_000


class PaTreeEngine(PolledWorker):
    """Drives a :class:`~repro.core.tree.PaTree` with the PA paradigm."""

    metric_prefix = "engine"

    def __init__(
        self,
        simos,
        backend,
        tree,
        policy,
        source,
        buffer=None,
        qpair=None,
        dedicated_poller=POLLER_NONE,
        name="pa-tree",
    ):
        super().__init__(
            simos, backend, policy, source, qpair=qpair, name=name
        )
        self.tree = tree
        self.buffer = buffer
        self.persistence = buffer.mode if buffer is not None else PERSISTENCE_STRONG
        self.dedicated_poller = dedicated_poller
        self.latches = LatchTable()
        subscribe(tree, "on_page_released", self._on_page_released)

        self._node_cache = {}
        self._writes_in_flight = {}
        self._active_sync = None

        self.completed_by_kind = {}
        self.latch_wait_events = Counter()
        # batch pipeline accounting: completed batched ops, the specs
        # they carried, the leaf groups they formed, and page writes
        # that rode a coalesced command vector instead of their own
        # doorbell
        self.batch_ops = Counter()
        self.batch_keys = Counter()
        self.batch_groups = Counter()
        self.coalesced_writes = Counter()
        self.poller_thread = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self):
        """Spawn the working thread (and poller, if configured)."""
        super().start()
        if self.dedicated_poller is not None:
            self.poller_thread = self.simos.spawn(
                self._poller_body(), name=self.name + "-poller", group=self.name
            )
        return self.worker_thread

    def run_to_completion(self):
        """Run until the source drains; no latch may outlive the run."""
        super().run_to_completion()
        self.latches.assert_quiescent()

    def _poller_body(self):
        """Dedicated polling thread (PAD / PAD+ variants, Fig 11)."""
        cpu = self.simos.cpu
        costs = self.tree.costs
        driver = self.driver
        profile = driver.profile
        # PAD+ reads the history's verdict, the one the worker's reads
        use_model = (
            self.dedicated_poller == POLLER_MODEL
            and getattr(self.policy, "probe_model", None) is not None
        )
        max_gap_ns = getattr(self.policy, "max_probe_gap_ns", 100_000)
        min_gap_ns = getattr(self.policy, "min_probe_gap_ns", 0)
        last_probe_ns = 0
        while not self._shutdown:
            if use_model:
                cpu(costs.probe_model_ns, CPU_SCHED) or (yield)
                gap = self.clock.now - last_probe_ns
                overdue = gap >= max_gap_ns
                gated = gap < min_gap_ns or (
                    self.io_history.outstanding_count == 0
                    or not self.io_history.predicts_completion()
                )
                if not overdue and gated:
                    cpu(costs.idle_spin_ns, CPU_SCHED) or (yield)
                    continue
                last_probe_ns = self.clock.now
            cpu(profile.probe_cpu_ns, CPU_NVME) or (yield)
            completed = driver.probe(self.qpair)
            self.probes.add()
            if completed:
                # cross-thread handoff: each completion moves through a
                # synchronized queue to the working thread
                cpu(
                    len(completed)
                    * (profile.probe_cpu_per_completion_ns + costs.handoff_sync_ns),
                    CPU_SYNC,
                ) or (yield)
            else:
                cpu(costs.idle_spin_ns, CPU_NVME) or (yield)

    # ------------------------------------------------------------------
    # operation processing
    # ------------------------------------------------------------------

    def _make_plan(self, op):
        return make_plan(op, self.tree)

    def _process(self, op):
        """Run ``op`` until it waits or completes (paper's process(c)).

        A ``CoupleEff`` is served inline as its four steps.  Where it
        waits it stays pending on ``op.step``, and the resume goes on
        from there: after a latch wait with the parent release, after
        a read with the parse, then the search.
        """
        cpu = self.simos.cpu
        costs = self.tree.costs
        cpu(costs.dispatch_ns, CPU_SCHED) or (yield)

        send = op.resume_value
        op.resume_value = None
        step = op.step
        op.step = None
        if type(send) is Completion:
            # read completion: turn raw bytes into a parsed node
            cpu(costs.node_parse_ns, CPU_REAL_WORK) or (yield)
            send = self._node_from_completion(send)
            if step is not None:
                cpu(costs.node_search_ns, CPU_REAL_WORK) or (yield)
                step = None
        # a step still set here was granted its latch while it waited

        latches = self.latches
        buffer = self.buffer
        while True:
            if step is not None:
                # a granted step: release the parent, read, search
                parent = step.parent
                if parent is not None:
                    cpu(costs.latch_release_ns, CPU_SYNC) or (yield)
                    woken = latches.release(op, parent)
                    if woken:
                        self._wake(woken)
                page_id = step.page_id
                data = None
                if buffer is not None:
                    cpu(costs.buffer_lookup_ns, CPU_REAL_WORK) or (yield)
                    data = buffer.lookup(page_id)
                if data is None:
                    yield from self._read_page(op, page_id)
                    op.step = step
                    self._park_for_io(op)
                    return
                cpu(costs.node_parse_ns, CPU_REAL_WORK) or (yield)
                send = self._node_cache.get(page_id)
                if send is None:
                    send = Node.from_bytes(self.tree.config, page_id, data)
                    self._cache_node(send)
                cpu(costs.node_search_ns, CPU_REAL_WORK) or (yield)
                step = None

            try:
                effect = op.gen.send(send)
            except StopIteration:
                self._complete(op)
                return
            send = None
            kind = type(effect)

            if kind is CoupleEff:
                cpu(costs.latch_request_ns, CPU_SYNC) or (yield)
                if not latches.request(op, effect.page_id, effect.mode):
                    op.step = effect
                    self._wait_for_latch(op, effect.page_id)
                    return
                step = effect

            elif kind is LatchEff:
                cpu(costs.latch_request_ns, CPU_SYNC) or (yield)
                if not latches.request(op, effect.page_id, effect.mode):
                    self._wait_for_latch(op, effect.page_id)
                    return

            elif kind is UnlatchEff:
                cpu(costs.latch_release_ns, CPU_SYNC) or (yield)
                self._wake(latches.release(op, effect.page_id))

            elif kind is UnlatchManyEff:
                page_ids = effect.page_ids
                cpu(
                    vector_cost_ns(costs.latch_release_ns, len(page_ids)),
                    CPU_SYNC,
                ) or (yield)
                self._wake(latches.release_many(op, page_ids))

            elif kind is ReadEff:
                page_id = effect.page_id
                if buffer is not None:
                    cpu(costs.buffer_lookup_ns, CPU_REAL_WORK) or (yield)
                    data = buffer.lookup(page_id)
                    if data is not None:
                        cpu(costs.node_parse_ns, CPU_REAL_WORK) or (yield)
                        send = self._node_cache.get(page_id)
                        if send is None:
                            send = Node.from_bytes(self.tree.config, page_id, data)
                            self._cache_node(send)
                        continue
                yield from self._read_page(op, page_id)
                self._park_for_io(op)
                return

            elif kind is WriteEff:
                waiting = yield from self._write_wave(op, effect)
                if waiting:
                    self._park_for_io(op)
                    return

            elif kind is ChargeEff:
                cpu(effect.ns, effect.category) or (yield)

            elif kind is SyncEff:
                waiting, flushed = yield from self._start_sync(op)
                if waiting:
                    self._park_for_io(op)
                    return
                send = flushed

            elif kind is AllocEff:
                send = self.tree.allocator.allocate()

            elif kind is FreeEff:
                self.tree.release_page(effect.page_id)

            else:
                raise TreeError("operation yielded unknown effect %r" % (effect,))

    def _wait_for_latch(self, op, page_id):
        """``op`` queued behind a latch on ``page_id``."""
        op.state = ST_LATCH_WAIT
        self.latch_wait_events.add()
        if self.tracer.enabled:
            self.tracer.async_instant(
                "op", op.seq, "latch_wait", args={"page": page_id}
            )

    def _wake(self, woken):
        """Move operations a latch release granted back to ready."""
        for waiter in woken:
            waiter.state = ST_READY
            self.policy.on_ready(waiter)

    def _read_page(self, op, page_id):
        """Submit the read of a page the buffer does not hold."""
        self.simos.cpu(self.driver.profile.submit_cpu_ns, CPU_NVME) or (yield)
        command = self.driver.read(
            self.qpair, page_id, callback=self._on_io_done, context=op
        )
        self.io_history.on_submit(command)
        op.io_remaining = 1

    def _write_wave(self, op, effect):
        """Persist one wave of nodes; returns True when op must wait."""
        cpu = self.simos.cpu
        costs = self.tree.costs
        images = []
        for node in effect.nodes:
            cpu(costs.node_serialize_ns, CPU_REAL_WORK) or (yield)
            images.append((node.page_id, node.to_bytes()))
            self._cache_node(node)
        if effect.write_meta:
            cpu(costs.node_serialize_ns, CPU_REAL_WORK) or (yield)
            images.append((self.tree.meta_page, self.tree.meta.to_bytes()))

        if self.persistence == PERSISTENCE_WEAK:
            for page_id, data in images:
                evicted = self.buffer.write(page_id, data)
                for victim_id, victim_data in evicted:
                    cpu(self.driver.profile.submit_cpu_ns, CPU_NVME) or (yield)
                    self._submit_page_write(victim_id, victim_data, None)
            return False

        if effect.coalesce and len(images) > 1:
            # Batch path: one command vector, one doorbell.  Pages with
            # a write already in flight join that page's serialization
            # chain exactly like the scalar path.
            immediate = []
            count = 0
            for page_id, data in images:
                pending = self._writes_in_flight.get(page_id)
                if pending is not None:
                    pending.append((data, op))
                else:
                    self._writes_in_flight[page_id] = deque()
                    immediate.append((page_id, data))
                count += 1
            if immediate:
                cpu(
                    self.driver.submit_many_cpu_ns(len(immediate)), CPU_NVME
                ) or (yield)
                commands = self.driver.write_many(
                    self.qpair, immediate, callback=self._on_io_done, context=op
                )
                for command in commands:
                    self.io_history.on_submit(command)
                self.coalesced_writes.add(len(immediate) - 1)
            op.io_remaining = count
            return count > 0

        count = 0
        for page_id, data in images:
            cpu(self.driver.profile.submit_cpu_ns, CPU_NVME) or (yield)
            self._submit_page_write(page_id, data, op)
            count += 1
        op.io_remaining = count
        return count > 0

    def _start_sync(self, op):
        """Handle a ``sync()`` operation; returns (waiting, flushed).

        Flush writes are queued through the deferred list so the main
        loop meters them into the submission ring instead of
        overrunning it when thousands of pages are dirty.
        """
        if self.persistence == PERSISTENCE_STRONG:
            return False, 0
        if self._active_sync is not None:
            raise SchedulerError("concurrent sync operations are not supported")
        self.simos.cpu(self.tree.costs.dispatch_ns, CPU_SCHED) or (yield)
        flushing = self.buffer.take_dirty()
        for page_id, data in flushing:
            self._deferred_flushes.append((page_id, data, op))
        op.io_remaining = len(flushing)
        if op.io_remaining == 0 and self._background_outstanding == 0:
            return False, 0
        self._active_sync = op
        op.resume_value = len(flushing)
        return True, None

    def _complete(self, op):
        if op.held_latches:
            raise TreeError(
                "operation %r completed holding latches %r"
                % (op, sorted(op.held_latches))
            )
        super()._complete(op)

    def _account(self, op):
        self.completed_by_kind[op.kind] = self.completed_by_kind.get(op.kind, 0) + 1
        if op.kind == BATCH:
            self.batch_ops.add()
            self.batch_keys.add(len(op.specs or ()))
            self.batch_groups.add(op.groups)
        if op.kind != SYNC and op.error is None:
            self.user_completed += 1
            self.last_user_done_ns = op.done_ns
        if op.error is None:
            # goodput only: an errored op produced no usable result, so
            # its (truncated) latency must not dilute the distribution
            self.latencies.record(op.latency_ns)

    # ------------------------------------------------------------------
    # I/O plumbing
    # ------------------------------------------------------------------

    def _submit_page_write(self, lba, data, op):
        """Submit a page write, serializing concurrent writes per LBA."""
        if op is None:
            self._background_outstanding += 1
        pending = self._writes_in_flight.get(lba)
        if pending is not None:
            pending.append((data, op))
            return
        self._writes_in_flight[lba] = deque()
        command = self.driver.write(
            self.qpair, lba, data, callback=self._on_io_done, context=op
        )
        self.io_history.on_submit(command)

    def _advance_write_chain(self, lba):
        """The write in flight on ``lba`` is over (landed or lost):
        submit the next one serialized behind it, if any."""
        pending = self._writes_in_flight.get(lba)
        if pending:
            next_data, next_op = pending.popleft()
            self._resubmit_write(lba, next_data, next_op, self._on_io_done, 0)
        else:
            self._writes_in_flight.pop(lba, None)

    def _on_io_done(self, completion):
        """Completion callback, fired from a probe (zero virtual time)."""
        command = completion.command
        self.io_history.on_complete(command)
        if not completion.ok:
            self._on_io_failed(completion)
            return
        op = command.context

        if command.opcode == OP_READ:
            if self.buffer is not None:
                for victim_id, victim_data in self.buffer.install(
                    command.lba, command.data
                ):
                    self._deferred_flushes.append((victim_id, victim_data, None))
            if op.state is ST_DONE:
                return  # late completion for an already-aborted op
            op.resume_value = completion
            op.io_remaining -= 1
            if op.io_remaining == 0:
                op.state = ST_READY
                self.policy.on_ready(op)
            return

        # write completion
        lba = command.lba
        self._advance_write_chain(lba)

        if op is None:
            # background flush (eviction)
            self._background_outstanding -= 1
            if self.buffer is not None:
                self.buffer.flush_done(lba)
            self._maybe_finish_sync()
            return

        if self.persistence == PERSISTENCE_STRONG and self.buffer is not None:
            self.buffer.install(lba, command.data)

        if op.kind == SYNC:
            if self.buffer is not None:
                self.buffer.flush_done(lba)
            op.io_remaining -= 1
            self._maybe_finish_sync()
            return

        self._write_done(op)

    # ------------------------------------------------------------------
    # failure handling
    # ------------------------------------------------------------------

    def _on_io_failed(self, completion):
        """A failure the driver would not (or could no longer) retry."""
        command = completion.command
        self.io_errors.add()
        if self.tracer.enabled:
            self.tracer.instant(
                "io", "io_error", cat="io",
                args={"status": str(completion.status), "lba": command.lba},
            )
        if command.opcode == OP_READ:
            op = command.context
            if op is None or op.state is ST_DONE:
                return
            op.io_remaining -= 1
            self._abort_op(op, self._error_from(completion))
            return
        # abort would desync tree and media: re-drive, or declare lost
        if not self._escalate_write(completion, self._on_io_done):
            self._give_up_write(completion)

    def _release_latches(self, op):
        for page_id in sorted(op.held_latches):
            self._wake(self.latches.release(op, page_id))

    def _give_up_write(self, completion):
        """The escalation budget is spent; declare the page lost."""
        command = completion.command
        lba = command.lba
        op = command.context
        self.lost_writes.add()
        self._advance_write_chain(lba)
        error = self._error_from(completion)
        if op is None:
            self._background_outstanding -= 1
            if self.buffer is not None:
                self.buffer.flush_done(lba)
            self._maybe_finish_sync()
            return
        if op.kind == SYNC:
            if self.buffer is not None:
                self.buffer.flush_done(lba)
            if op.error is None:
                op.error = error
            op.io_remaining -= 1
            self._maybe_finish_sync()
            return
        self._write_done(op, error)

    def _maybe_finish_sync(self):
        op = self._active_sync
        if op is None:
            return
        if op.io_remaining == 0 and self._background_outstanding == 0:
            self._active_sync = None
            op.state = ST_READY
            self.policy.on_ready(op)

    # ------------------------------------------------------------------
    # caches
    # ------------------------------------------------------------------

    def _cache_node(self, node):
        if len(self._node_cache) >= _NODE_CACHE_LIMIT:
            self._node_cache.clear()
        self._node_cache[node.page_id] = node

    def _node_from_completion(self, completion):
        node = self._node_cache.get(completion.lba)
        if node is None:
            node = Node.from_bytes(self.tree.config, completion.lba, completion.data)
            self._cache_node(node)
        return node

    def _on_page_released(self, page_id):
        self._node_cache.pop(page_id, None)
        if self.buffer is not None:
            self.buffer.invalidate(page_id)

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------

    def register_metrics(self, registry, labels=None):
        """Expose the whole worker stack through a metric registry.

        On top of the common worker block: latch-wait and batch
        pipeline counters, then the latch table and the buffer, so
        attaching one engine registers every layer it owns under the
        same labels.
        """
        super().register_metrics(registry, labels)
        registry.counter(
            "engine_latch_wait_events_total", labels,
            fn=lambda: self.latch_wait_events.value,
            help="operations that entered the latch-wait state",
        )
        registry.counter(
            "batch_ops_total", labels,
            fn=lambda: self.batch_ops.value,
            help="batched operations completed",
        )
        registry.counter(
            "batch_keys_total", labels,
            fn=lambda: self.batch_keys.value,
            help="specs carried by completed batched operations",
        )
        registry.counter(
            "batch_groups_total", labels,
            fn=lambda: self.batch_groups.value,
            help="leaf groups formed by completed batched operations",
        )
        registry.gauge(
            "batch_group_size", labels,
            fn=lambda: (
                self.batch_keys.value / self.batch_groups.value
                if self.batch_groups.value
                else 0.0
            ),
            help="mean specs per leaf group across completed batches",
        )
        registry.counter(
            "engine_coalesced_writes_total", labels,
            fn=lambda: self.coalesced_writes.value,
            help="page writes that shared a coalesced command vector",
        )
        self.latches.register_metrics(registry, labels=labels)
        if self.buffer is not None:
            self.buffer.register_metrics(registry, labels=labels)
        return registry

    def stats(self):
        """Totals snapshot; harnesses diff two snapshots for a window."""
        out = super().stats()
        out["completed_by_kind"] = dict(self.completed_by_kind)
        out["latch_waits"] = self.latch_wait_events.value
        out["outstanding_avg"] = self.io_history.outstanding_count
        # batch keys appear only when batches actually ran, keeping
        # single-op artifacts bit-for-bit identical
        if self.batch_ops.value:
            out["batch_ops"] = self.batch_ops.value
            out["batch_keys"] = self.batch_keys.value
            out["batch_groups"] = self.batch_groups.value
            out["coalesced_writes"] = self.coalesced_writes.value
        return out
