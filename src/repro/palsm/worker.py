"""The polled-mode asynchronous LSM working thread.

The LSM's half of :class:`repro.core.worker.PolledWorker`: the polled
interpreter of the leveled LSM's plans
(:class:`~repro.baselines.lsm.levels.LeveledStore`, which the blocking
baseline store interprets too) and its completion callbacks, driven
through the same Algorithm 1/2 main loop the B+ tree uses (the paper's
future-work direction).

Differences from the tree engine reflect LSM structure: there are no
latches (a single worker over immutable tables needs none), reads go
through a block cache, and internal maintenance work (memtable
flushes, compactions) runs as ordinary interleaved operations — a
compaction's page reads and writes are all in flight concurrently
while user gets and puts continue to complete between them.  The pages
a compaction retires stay allocated until every operation admitted
before its swap has completed (the epoch quarantine): such an
operation may still walk a snapshot that reads them.
"""

from collections import deque

from repro.baselines.lsm.levels import OP_COMPACT, OP_FLUSH
from repro.core.ops import (
    ChargeEff,
    MaintainEff,
    ReadEff,
    ReadManyEff,
    RetireEff,
    ST_DONE,
    ST_READY,
    SYNC,
    WriteEff,
)
from repro.core.worker import PolledWorker
from repro.errors import SchedulerError
from repro.nvme.command import OP_READ
from repro.sim.metrics import CPU_NVME, CPU_REAL_WORK, CPU_SCHED

_MAINTENANCE_KINDS = (OP_FLUSH, OP_COMPACT)


class PolledLsmWorker(PolledWorker):
    """Single polled-mode worker over a
    :class:`~repro.baselines.lsm.levels.LeveledStore`."""

    internal_kinds = _MAINTENANCE_KINDS

    def __init__(self, simos, backend, store, policy, source, tracer=None,
                 qpair=None):
        super().__init__(
            simos, backend, policy, source,
            qpair=qpair, name="pa-lsm", tracer=tracer,
        )
        self.store = store
        self._batch_reads = {}  # op seq -> (lbas, {lba: image})
        self._admitted = AdmissionOrder()
        self._pending_frees = []  # the quarantine: (barrier seq, [lbas])

    # ------------------------------------------------------------------
    # operation processing
    # ------------------------------------------------------------------

    def _make_plan(self, op):
        return self.store.make_plan(op)

    def _admit(self, op):
        super()._admit(op)
        self._admitted.admit(op.seq)

    def _process(self, op):
        cpu = self.simos.cpu
        costs = self.costs
        cpu(costs.dispatch_ns, CPU_SCHED) or (yield)
        send = op.resume_value
        op.resume_value = None
        while True:
            try:
                effect = op.gen.send(send)
            except StopIteration:
                self._complete(op)
                return
            send = None
            kind = type(effect)

            if kind is ReadEff:
                cpu(costs.buffer_lookup_ns, CPU_REAL_WORK) or (yield)
                cached = self.store.cache.get(effect.page_id)
                if cached is not None:
                    send = cached
                    continue
                cpu(self.driver.profile.submit_cpu_ns, CPU_NVME) or (yield)
                command = self.driver.read(
                    self.qpair, effect.page_id, callback=self._on_io_done, context=op
                )
                self.io_history.on_submit(command)
                op.io_remaining = 1
                self._park_for_io(op)
                return

            if kind is ReadManyEff:
                results = {}
                pending = 0
                for lba in effect.page_ids:
                    cpu(costs.buffer_lookup_ns, CPU_REAL_WORK) or (yield)
                    cached = self.store.cache.get(lba)
                    if cached is not None:
                        results[lba] = cached
                        continue
                    cpu(self.driver.profile.submit_cpu_ns, CPU_NVME) or (yield)
                    command = self.driver.read(
                        self.qpair, lba, callback=self._on_io_done, context=op
                    )
                    self.io_history.on_submit(command)
                    pending += 1
                if pending:
                    self._batch_reads[op.seq] = (effect.page_ids, results)
                    op.io_remaining = pending
                    self._park_for_io(op, pending)
                    return
                send = [results[lba] for lba in effect.page_ids]
                continue

            if kind is WriteEff:
                pages = effect.pages
                if effect.on_durable is None:
                    callback, context = self._on_io_done, op
                else:  # group commit: the operation goes on at once
                    callback = self._on_background_done
                    context = _GroupCommit(len(pages), effect.on_durable)
                    self._background_outstanding += len(pages)
                for lba, image in pages:
                    cpu(self.driver.profile.submit_cpu_ns, CPU_NVME) or (yield)
                    command = self.driver.write(
                        self.qpair, lba, image, callback=callback, context=context
                    )
                    self.io_history.on_submit(command)
                if pages and context is op:
                    op.io_remaining = len(pages)
                    self._park_for_io(op, len(pages))
                    return
                continue

            if kind is ChargeEff:
                cpu(effect.ns, effect.category) or (yield)
                continue

            if kind is MaintainEff:
                self._internal.append(effect.op)
                continue

            if kind is RetireEff:
                self._pending_frees.append((self._next_seq, effect.lbas))
                continue

            raise SchedulerError("LSM plan yielded unknown effect %r" % (effect,))

    def _complete(self, op):
        self._admitted.finish(op.seq)
        super()._complete(op)
        if self._pending_frees:
            self._release_frees()

    def _release_frees(self):
        """Free quarantined pages once no operation admitted before
        their swap remains."""
        min_active = self._admitted.oldest(self._next_seq)
        kept = []
        for barrier, lbas in self._pending_frees:
            if min_active >= barrier:
                self.store.free_pages(lbas)
            else:
                kept.append((barrier, lbas))
        self._pending_frees = kept

    def _account(self, op):
        if (
            op.error is None
            and op.kind != SYNC
            and op.kind not in _MAINTENANCE_KINDS
        ):
            # goodput only: errored ops have no usable result
            self.user_completed += 1
            self.last_user_done_ns = op.done_ns
            self.latencies.record(op.latency_ns)

    # ------------------------------------------------------------------
    # completion callbacks (fired from probe, zero virtual time)
    # ------------------------------------------------------------------

    def _on_io_done(self, completion):
        command = completion.command
        self.io_history.on_complete(command)
        if not completion.ok:
            self._on_io_failed(completion)
            return
        op = command.context
        if command.opcode == OP_READ:
            if op.state is ST_DONE:
                # late completion for an already-aborted op: its abort
                # may have released the quarantine holding this LBA, so
                # the image may belong to no table any more
                return
            self.store.cache.put(command.lba, command.data)
            batch = self._batch_reads.get(op.seq)
            if batch is not None:
                lbas, results = batch
                results[command.lba] = command.data
                op.io_remaining -= 1
                if op.io_remaining == 0:
                    del self._batch_reads[op.seq]
                    op.resume_value = [results[lba] for lba in lbas]
                    op.state = ST_READY
                    self.policy.on_ready(op)
                return
            op.resume_value = command.data
            op.io_remaining -= 1
            if op.io_remaining == 0:
                op.state = ST_READY
                self.policy.on_ready(op)
            return
        self._write_done(op)

    def _on_background_done(self, completion):
        command = completion.command
        self.io_history.on_complete(command)
        batch = command.context
        if not completion.ok:
            self.io_errors.add()
            if self._escalate_write(completion, self._on_background_done):
                return
            self.lost_writes.add()
            batch.on_durable = None  # a lost page: none of it is durable
        self._background_outstanding -= 1
        batch.remaining -= 1
        if batch.remaining == 0 and batch.on_durable is not None:
            batch.on_durable()

    # ------------------------------------------------------------------
    # failure handling
    # ------------------------------------------------------------------

    def _on_io_failed(self, completion):
        command = completion.command
        self.io_errors.add()
        if command.opcode == OP_READ:
            op = command.context
            if op is None or op.state is ST_DONE:
                return
            op.io_remaining -= 1
            self._batch_reads.pop(op.seq, None)
            self._abort_op(op, self._error_from(completion))
            return
        # writes must land: the store's in-memory manifest already
        # accounts for these pages, so re-drive until success or cap
        if self._escalate_write(completion, self._on_io_done):
            return
        self.lost_writes.add()
        self._write_done(command.context, self._error_from(completion))

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------

    def register_metrics(self, registry, labels=None):
        """The common worker block plus the store's maintenance counts."""
        super().register_metrics(registry, labels)
        registry.counter(
            "store_flushes_total", labels,
            fn=lambda: self.store.flushes,
            help="memtable flushes completed",
        )
        registry.counter(
            "store_compactions_total", labels,
            fn=lambda: self.store.compactions,
            help="compactions completed",
        )
        return registry

    def stats(self):
        out = super().stats()
        out["user_completed"] = self.user_completed
        out["flushes"] = self.store.flushes
        out["compactions"] = self.store.compactions
        return out


class AdmissionOrder:
    """The oldest operation still running, in amortised O(1): sequence
    numbers in admission (ascending) order, finished ones dropped from
    the front as they surface."""

    __slots__ = ("_order", "_active")

    def __init__(self):
        self._order = deque()
        self._active = set()

    def admit(self, seq):
        self._order.append(seq)
        self._active.add(seq)

    def finish(self, seq):
        active = self._active
        active.discard(seq)
        order = self._order
        while order and order[0] not in active:
            order.popleft()

    def oldest(self, default):
        """The smallest running sequence number, or ``default``."""
        return self._order[0] if self._order else default


class _GroupCommit:
    """The pages of one group-commit ``WriteEff`` still in flight."""

    __slots__ = ("remaining", "on_durable")

    def __init__(self, remaining, on_durable):
        self.remaining = remaining
        self.on_durable = on_durable
