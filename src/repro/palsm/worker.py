"""The polled-mode asynchronous LSM working thread.

The LSM's half of :class:`repro.core.worker.PolledWorker`: the effect
interpreter and completion callbacks that drive
:class:`~repro.palsm.store.AsyncLsmStore` operation plans through the
same Algorithm 1/2 main loop the B+ tree uses (the paper's future-work
direction).

Differences from the tree engine reflect LSM structure: there are no
latches (a single worker over immutable tables needs none), reads go
through a block cache, and internal maintenance work (memtable
flushes, compactions) runs as ordinary interleaved operations — a
compaction's page reads and writes are all in flight concurrently
while user gets and puts continue to complete between them.
"""

from repro.core.costs import DEFAULT_COSTS
from repro.core.ops import (
    ChargeEff,
    ST_DONE,
    ST_READY,
    SYNC,
)
from repro.core.worker import PolledWorker
from repro.errors import SchedulerError
from repro.nvme.command import OP_READ
from repro.palsm.store import (
    BackgroundWriteEff,
    OP_COMPACT,
    OP_FLUSH,
    ReadBatchEff,
    ReadPageEff,
    WriteBatchEff,
)
from repro.sim.metrics import CPU_NVME, CPU_REAL_WORK, CPU_SCHED

_MAINTENANCE_KINDS = (OP_FLUSH, OP_COMPACT)


class PolledLsmWorker(PolledWorker):
    """Single polled-mode worker over an :class:`AsyncLsmStore`."""

    internal_kinds = _MAINTENANCE_KINDS

    def __init__(self, simos, backend, store, policy, source, name="pa-lsm",
                 tracer=None, qpair=None):
        super().__init__(
            simos, backend, policy, source, DEFAULT_COSTS,
            qpair=qpair, name=name, tracer=tracer,
        )
        self.store = store
        self._batch_reads = {}  # op seq -> (lbas, {lba: image})
        self._active_seqs = set()
        store.enqueue_internal = self._internal.append
        store.next_seq = lambda: self._next_seq

    # ------------------------------------------------------------------
    # operation processing
    # ------------------------------------------------------------------

    def _make_plan(self, op):
        return self.store.make_plan(op)

    def _admit(self, op):
        super()._admit(op)
        self._active_seqs.add(op.seq)

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

            if kind is ReadPageEff:
                cpu(costs.buffer_lookup_ns, CPU_REAL_WORK) or (yield)
                cached = self.store.cache.get(effect.lba)
                if cached is not None:
                    send = cached
                    continue
                cpu(self.driver.submit_cpu_ns, CPU_NVME) or (yield)
                command = self.driver.read(
                    self.qpair, effect.lba, callback=self._on_io_done, context=op
                )
                self.io_history.on_submit(command)
                op.io_remaining = 1
                self._park_for_io(op)
                return

            if kind is ReadBatchEff:
                results = {}
                pending = 0
                for lba in effect.lbas:
                    cpu(costs.buffer_lookup_ns, CPU_REAL_WORK) or (yield)
                    cached = self.store.cache.get(lba)
                    if cached is not None:
                        results[lba] = cached
                        continue
                    cpu(self.driver.submit_cpu_ns, CPU_NVME) or (yield)
                    command = self.driver.read(
                        self.qpair, lba, callback=self._on_io_done, context=op
                    )
                    self.io_history.on_submit(command)
                    pending += 1
                if pending:
                    self._batch_reads[op.seq] = (effect.lbas, results)
                    op.io_remaining = pending
                    self._park_for_io(op, pending)
                    return
                send = [results[lba] for lba in effect.lbas]
                continue

            if kind is WriteBatchEff:
                count = 0
                for lba, image in effect.pages:
                    cpu(self.driver.submit_cpu_ns, CPU_NVME) or (yield)
                    command = self.driver.write(
                        self.qpair, lba, image, callback=self._on_io_done, context=op
                    )
                    self.io_history.on_submit(command)
                    count += 1
                if count:
                    op.io_remaining = count
                    self._park_for_io(op, count)
                    return
                continue

            if kind is BackgroundWriteEff:
                batch = _BackgroundBatch(len(effect.pages), effect.on_complete)
                for lba, image in effect.pages:
                    cpu(self.driver.submit_cpu_ns, CPU_NVME) or (yield)
                    command = self.driver.write(
                        self.qpair,
                        lba,
                        image,
                        callback=self._on_background_done,
                        context=batch,
                    )
                    self.io_history.on_submit(command)
                    self._background_outstanding += 1
                continue

            if kind is ChargeEff:
                cpu(effect.ns, effect.category) or (yield)
                continue

            raise SchedulerError("LSM plan yielded unknown effect %r" % (effect,))

    def _complete(self, op):
        self._active_seqs.discard(op.seq)
        super()._complete(op)
        min_active = min(self._active_seqs) if self._active_seqs else self._next_seq
        self.store.release_frees(min_active)

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
            self.store.cache.put(command.lba, command.data)
            if op.state is ST_DONE:
                return  # late completion for an already-aborted op
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
        op.io_remaining -= 1
        if op.io_remaining == 0:
            if op.error is not None:
                self._abort_op(op, None)
            else:
                op.state = ST_READY
                self.policy.on_ready(op)

    def _on_background_done(self, completion):
        command = completion.command
        self.io_history.on_complete(command)
        if not completion.ok:
            self.io_errors.add()
            if self._escalate_write(completion, self._on_background_done):
                return
            self.lost_writes.add()
        self._background_outstanding -= 1
        batch = command.context
        batch.remaining -= 1
        if batch.remaining == 0 and batch.on_complete is not None:
            batch.on_complete()

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
        op = command.context
        op.io_remaining -= 1
        if op.error is None:
            op.error = self._error_from(completion)
        if op.io_remaining == 0:
            self._abort_op(op, None)

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


class _BackgroundBatch:
    __slots__ = ("remaining", "on_complete")

    def __init__(self, remaining, on_complete):
        self.remaining = remaining
        self.on_complete = on_complete
