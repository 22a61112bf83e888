"""Synchronous B+ tree accessor (paper §V-A baselines).

Interprets the shared plans of :mod:`repro.core.plans` — the same
generators the PA engine runs: latch-coupled descent, split cascades
with ordered write waves, right-sibling delete rebalancing, and the
batch plan of :mod:`repro.core.batch` — in the
*traditional synchronous execution paradigm*: the calling thread
blocks on every I/O (through a :mod:`~repro.baselines.io_service`) and
on every latch (through the semaphore-based
:class:`~repro.baselines.latching.BlockingLatchTable`).  The tree
algorithm has one home; only what serves an effect differs.

One accessor instance is shared by all worker threads of a baseline
run; shared mutable state (buffer, allocator, meta) is protected by
mutexes, each access paying the semaphore syscall costs the paper's
CPU breakdown charges to synchronization.  The LCB and Blink baselines
are subclasses: LCB swaps the page-persistence layer, Blink the plans
(``_make_plan``).

The loop is :class:`BlockingInterpreter`, which the LSM store
(:class:`repro.baselines.lsm.store.LsmStore`) runs too, over its own
page layer.
"""

from repro.core.node import Node
from repro.core.ops import (
    AllocEff,
    ChargeEff,
    CoupleEff,
    FreeEff,
    LatchEff,
    MaintainEff,
    ReadEff,
    ReadManyEff,
    RetireEff,
    SyncEff,
    UnlatchEff,
    UnlatchManyEff,
    WriteEff,
)
from repro.core.plans import make_plan
from repro.errors import IoError, TreeError
from repro.sim.metrics import CPU_REAL_WORK
from repro.simos.sync import Mutex


class BlockingInterpreter:
    """The blocking interpreter of every plan set: one loop that
    ``send``s into the plan ``_make_plan(op)`` returns and serves each
    effect on the calling thread, through the page layer a subclass
    supplies -- ``_read_page``, ``_write_node`` / ``_write_meta`` /
    ``_write_page``, ``_allocate`` / ``_free``, ``_sync``, ``_retire``
    -- and its ``latches``.  The loop never asks which structure it
    serves; only a tree plan yields ``CoupleEff``, whose search it
    charges at ``self.tree``'s cost."""

    #: a latch-free structure's plans never yield a LatchEff
    latches = None

    def execute(self, tls, op):
        """Run one operation to completion on the calling thread: the
        loop's own generator, so no frame sits between it and the
        thread."""
        plan = self._make_plan(op)
        return self._serve(tls, op, plan, next(plan, None))

    def _serve(self, tls, op, plan, effect):
        """Serve ``plan``'s effects from ``effect`` (None: it yielded
        none) on.  An I/O failure closes the plan and releases
        ``op.held_latches``, so no thread queued behind them wedges."""
        latches = self.latches
        cpu = tls.simos.cpu
        try:
            while effect is not None:
                send = None
                kind = type(effect)
                if kind is CoupleEff:
                    # the four effects of one level, in their order
                    yield from latches.acquire(tls, op, effect.page_id, effect.mode)
                    if effect.parent is not None:
                        yield from latches.release(tls, op, effect.parent)
                    send = yield from self._read_page(tls, effect.page_id)
                    cpu(self.tree.costs.node_search_ns, CPU_REAL_WORK) or (yield)
                elif kind is LatchEff:
                    yield from latches.acquire(tls, op, effect.page_id, effect.mode)
                elif kind is UnlatchEff:
                    yield from latches.release(tls, op, effect.page_id)
                elif kind is UnlatchManyEff:
                    for page_id in effect.page_ids:
                        yield from latches.release(tls, op, page_id)
                elif kind is ReadEff:
                    send = yield from self._read_page(tls, effect.page_id)
                elif kind is ChargeEff:
                    cpu(effect.ns, effect.category) or (yield)
                elif kind is WriteEff:
                    # ``coalesce`` is a submission hint: a blocking
                    # thread has one write in flight either way, and it
                    # waits for a group commit like for any other wave
                    for node in effect.nodes:
                        yield from self._write_node(tls, node)
                    if effect.write_meta:
                        yield from self._write_meta(tls)
                    for page_id, image in effect.pages:
                        yield from self._write_page(tls, page_id, image)
                    if effect.on_durable is not None:
                        effect.on_durable()
                elif kind is AllocEff:
                    send = yield from self._allocate(tls)
                elif kind is FreeEff:
                    yield from self._free(tls, effect.page_id)
                elif kind is SyncEff:
                    send = yield from self._sync(tls)
                elif kind is ReadManyEff:
                    send = []
                    for page_id in effect.page_ids:
                        send.append((yield from self._read_page(tls, page_id)))
                elif kind is MaintainEff:
                    # inline, paid for by this thread
                    maintenance = self._make_plan(effect.op)
                    yield from self._serve(
                        tls, effect.op, maintenance, next(maintenance, None)
                    )
                elif kind is RetireEff:
                    self._retire(effect.lbas)
                else:
                    raise TreeError(
                        "operation yielded unknown effect %r" % (effect,)
                    )
                try:
                    effect = plan.send(send)
                except StopIteration:
                    break
        except IoError:
            plan.close()
            for page_id in sorted(op.held_latches):
                yield from latches.release(tls, op, page_id)
            raise
        if op.held_latches:
            raise TreeError(
                "operation %r completed holding latches %r"
                % (op, sorted(op.held_latches))
            )


class SyncTreeAccessor(BlockingInterpreter):
    """The blocking interpreter of the tree plans, over a blocking page
    layer: node reads and writes through the (optional) buffer and a
    blocking I/O service, ordered eviction flushes, the allocator and
    sync — each shared structure behind its mutex."""

    def __init__(self, tree, io_service, latches, buffer=None):
        self.tree = tree
        self.io = io_service
        self.latches = latches
        self.buffer = buffer
        self.persistence = buffer.mode if buffer is not None else "strong"
        self._buffer_mutex = Mutex("buffer") if buffer is not None else None
        self._alloc_mutex = Mutex("allocator")
        self._flush_locks = {}  # page_id -> Mutex (serializes flushes)

    # ------------------------------------------------------------------
    # node I/O through buffer + blocking I/O service
    # ------------------------------------------------------------------

    def _read_page(self, tls, page_id):
        costs = self.tree.costs
        simos = tls.simos
        if self.buffer is not None:
            simos.sem_wait(self._buffer_mutex) or (yield)
            simos.cpu(costs.buffer_lookup_ns, CPU_REAL_WORK) or (yield)
            data = self.buffer.lookup(page_id)
            simos.sem_post(self._buffer_mutex) or (yield)
            if data is not None:
                simos.cpu(costs.node_parse_ns, CPU_REAL_WORK) or (yield)
                return Node.from_bytes(self.tree.config, page_id, data)
        data = yield from self.io.read(tls, page_id)
        if self.buffer is not None:
            yield from self._install(tls, page_id, data)
        simos.cpu(costs.node_parse_ns, CPU_REAL_WORK) or (yield)
        return Node.from_bytes(self.tree.config, page_id, data)

    def _install(self, tls, page_id, data):
        simos = tls.simos
        simos.sem_wait(self._buffer_mutex) or (yield)
        evicted = self.buffer.install(page_id, data)
        simos.sem_post(self._buffer_mutex) or (yield)
        yield from self._flush_evicted(tls, evicted)

    def _flush_evicted(self, tls, evicted):
        """Flush dirty evictions with per-page ordering.

        Two threads may hold flushes for the same page (evict, rewrite,
        evict again); without serialization the older image could land
        on media last.  A per-page mutex serializes the device writes,
        and each flusher writes the *newest* in-flight bytes, so the
        final media content is always the latest version.
        """
        sem_wait, sem_post = tls.simos.sem_wait, tls.simos.sem_post
        for victim_id, victim_data in evicted:
            sem_wait(self._buffer_mutex) or (yield)
            lock = self._flush_locks.get(victim_id)
            if lock is None:
                lock = self._flush_locks[victim_id] = Mutex("flush")
            sem_post(self._buffer_mutex) or (yield)
            sem_wait(lock) or (yield)
            latest = self.buffer.in_flight_data(victim_id)
            try:
                yield from self.io.write(
                    tls, victim_id, latest if latest is not None else victim_data
                )
            except IoError:
                # the next flush of this page must not wait for a mutex
                # nobody holds
                sem_post(lock) or (yield)
                raise
            sem_wait(self._buffer_mutex) or (yield)
            self.buffer.flush_done(victim_id)
            sem_post(self._buffer_mutex) or (yield)
            sem_post(lock) or (yield)

    def _write_page(self, tls, page_id, data):
        """Persist one page per the persistence mode (blocking)."""
        simos = tls.simos
        if self.persistence == "weak":
            simos.sem_wait(self._buffer_mutex) or (yield)
            evicted = self.buffer.write(page_id, data)
            simos.sem_post(self._buffer_mutex) or (yield)
            yield from self._flush_evicted(tls, evicted)
            return
        yield from self.io.write(tls, page_id, data)
        if self.buffer is not None:
            simos.sem_wait(self._buffer_mutex) or (yield)
            self.buffer.install(page_id, data)
            simos.sem_post(self._buffer_mutex) or (yield)

    def _write_node(self, tls, node):
        cost = self.tree.costs.node_serialize_ns
        tls.simos.cpu(cost, CPU_REAL_WORK) or (yield)
        yield from self._write_page(tls, node.page_id, node.to_bytes())

    def _write_meta(self, tls):
        cost = self.tree.costs.node_serialize_ns
        tls.simos.cpu(cost, CPU_REAL_WORK) or (yield)
        yield from self._write_page(tls, self.tree.meta_page, self.tree.meta.to_bytes())

    def _allocate(self, tls):
        simos = tls.simos
        simos.sem_wait(self._alloc_mutex) or (yield)
        page_id = self.tree.allocator.allocate()
        simos.sem_post(self._alloc_mutex) or (yield)
        return page_id

    def _free(self, tls, page_id):
        simos = tls.simos
        simos.sem_wait(self._alloc_mutex) or (yield)
        self.tree.allocator.free(page_id)
        simos.sem_post(self._alloc_mutex) or (yield)
        if self.buffer is not None:
            simos.sem_wait(self._buffer_mutex) or (yield)
            self.buffer.invalidate(page_id)
            simos.sem_post(self._buffer_mutex) or (yield)

    def _sync(self, tls):
        """Flush every dirty buffered page; returns how many."""
        if self.persistence == "strong":
            return 0
        simos = tls.simos
        simos.sem_wait(self._buffer_mutex) or (yield)
        flushing = self.buffer.take_dirty()
        simos.sem_post(self._buffer_mutex) or (yield)
        # reuse the ordered per-page flush path so a sync never races
        # an in-flight eviction flush of the same page
        yield from self._flush_evicted(tls, flushing)
        return len(flushing)

    def _make_plan(self, op):
        return make_plan(op, self.tree)
