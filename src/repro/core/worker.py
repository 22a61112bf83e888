"""The polled-mode working thread: Algorithm 1/2, written once.

One simulated thread runs the paper's main loop (Algorithm 1 or 2,
depending on the plugged scheduling policy): admit operations from the
source, process the highest-priority ready operation until it blocks,
probe the NVMe completion queue when the policy says so, and yield the
CPU when the policy predicts nothing useful to do.

:class:`PolledWorker` owns everything about that loop that does not
depend on the index structure: backend / queue-pair / I/O-history
wiring, the thread lifecycle, admission, completion bookkeeping, typed
aborts, the queue-full-deferring write re-drive and the common metric
block.  A structure plugs in by subclassing
(:class:`repro.core.engine.PaTreeEngine` for the B+ tree,
:class:`repro.palsm.worker.PolledLsmWorker` for the LSM) and filling
the seams:

* ``_make_plan(op)`` — the operation's plan (an effect generator),
* ``_process(op)`` — the effect interpreter: run ``op`` until it waits
  or completes, submitting I/O with the subclass's own completion
  callbacks,
* ``_account(op)`` — goodput / latency bookkeeping of a finished op,
* ``_release_latches(op)`` — hand back what an aborted op still holds,
* ``_submit_page_write(lba, data, op)`` — only for a structure that
  queues page writes on ``_deferred_flushes``.
"""

from collections import deque

from repro.backend.base import as_backend
from repro.core.costs import DEFAULT_COSTS
from repro.core.ops import ST_DONE, ST_IO_WAIT, ST_READY
from repro.core.source import ClosedLoopSource
from repro.errors import (
    IoError,
    QueueFullError,
    RetryExhaustedError,
    SchedulerError,
)
from repro.sim.metrics import CPU_NVME, CPU_SCHED, Counter, LatencyRecorder
from repro.sim.nulltrace import NULL_TRACER
from repro.simos.thread import Sleep

# (counter attribute, help); exported as ``<metric_prefix>_<attr>_total``
_COUNTERS = (
    ("completed", "operations completed (including failed ones)"),
    ("failed_ops", "operations aborted with a typed error"),
    ("io_errors", "I/O failures the driver delivered to the worker"),
    ("io_escalations", "failed writes re-driven with a fresh command"),
    ("lost_writes", "writes abandoned at the escalation cap"),
    ("probes", "completion-queue probes performed"),
    ("probe_skips", "probe opportunities the policy declined"),
    ("idle_yields", "idle iterations resolved by yielding the core"),
    ("idle_spins", "idle iterations resolved by busy-spinning"),
)


class PolledWorker:
    """Single polled-mode working thread over one queue pair."""

    #: metric-name prefix; the tree and the LSM keep their historical ones
    metric_prefix = "worker"
    #: kinds of operations the structure spawns for itself (through
    #: ``_internal``); the source never issued them, so it is not told
    #: when they finish
    internal_kinds = ()
    #: a subclass may hand probing to a thread of its own (PAD / PAD+)
    dedicated_poller = None

    def __init__(
        self, simos, backend, policy, source, qpair=None,
        name="worker", tracer=None,
    ):
        self.simos = simos
        self.engine = simos.engine
        self.clock = simos.engine.clock
        # the worker speaks the IoBackend contract; a bare NvmeDriver
        # (the historical wiring) is adopted into a SimNvmeBackend, so
        # both spellings drive the identical code path
        self.backend = as_backend(backend)
        self.driver = self.backend
        self.policy = policy
        self.source = source
        self.costs = DEFAULT_COSTS
        self.qpair = qpair or self.backend.alloc_qpair(sq_size=4096, cq_size=4096)
        self.name = name
        # observability: tracer records spans when enabled; the
        # on_op_complete observer slot (repro.sim.hooks) sees every
        # completed operation
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.on_op_complete = ()
        self._track = "worker:%s" % name

        from repro.sched.history import IoHistory

        model = getattr(policy, "probe_model", None)
        if model is not None:
            self.io_history = IoHistory(
                self.clock, window_us=model.window_us, slices=model.slices
            )
        else:
            self.io_history = IoHistory(self.clock)

        # work queued for the loop itself: operations the structure
        # spawns (LSM flush / compaction), page writes waiting for ring
        # headroom (tree buffer evictions, sync flushes) and failed
        # writes whose re-drive found the ring full
        self._internal = deque()
        self._deferred_flushes = deque()
        self._deferred_escalations = deque()
        self._background_outstanding = 0
        self._next_seq = 0
        self.inflight = 0
        self._shutdown = False
        # a write that keeps failing is re-driven (fresh command, the
        # escalation count carried forward) this many times before the
        # worker declares the page lost; only pathological fault
        # configs (error rate ~1) ever reach the cap
        self.max_write_escalations = 8

        # measurement state
        self.latencies = LatencyRecorder()
        self.completed = Counter()
        self.user_completed = 0
        self.last_user_done_ns = 0
        self.probes = Counter()
        # scheduler decision accounting: probes the policy declined,
        # and how idle iterations resolved (yield vs busy-spin)
        self.probe_skips = Counter()
        self.idle_yields = Counter()
        self.idle_spins = Counter()
        # error-path accounting: failures the driver delivered to us,
        # operations aborted with a typed error, write re-drives, and
        # writes abandoned at the escalation cap
        self.io_errors = Counter()
        self.failed_ops = Counter()
        self.io_escalations = Counter()
        self.lost_writes = Counter()
        self.worker_thread = None

        policy.bind(self)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self):
        """Spawn the working thread."""
        self.worker_thread = self.simos.spawn(
            self._worker_body(), name=self.name, group=self.name
        )
        return self.worker_thread

    def run_to_completion(self):
        """Convenience: run the simulation until the source drains."""
        self.start()
        self.simos.run_until_done([self.worker_thread])
        if not self.worker_thread.done:
            raise SchedulerError(
                "worker %r did not finish (inflight=%d, outstanding=%d)"
                % (self.name, self.inflight, self.io_history.outstanding_count)
            )

    def reset_source(self, source=None):
        """Install a fresh operation source and re-arm the worker.

        The working thread exits once its source drains; facades that
        feed successive batches through one worker call this between
        batches instead of touching worker internals.  ``source=None``
        keeps the current source (routers whose per-shard pull queues
        are long-lived only need the re-arm).
        """
        if self.worker_thread is not None and not self.worker_thread.done:
            raise SchedulerError("cannot reset the source of a running worker")
        if source is not None:
            self.source = source
        self._shutdown = False

    def run_operations(self, operations, window=64):
        """Run ``operations`` closed-loop to completion; returns them."""
        operations = list(operations)
        self.reset_source(ClosedLoopSource(operations, window=window))
        self.run_to_completion()
        return operations

    # ------------------------------------------------------------------
    # the working thread main loop
    # ------------------------------------------------------------------

    def _worker_body(self):
        # tens of turns per operation even with the idle ones taken in
        # bursts (_repeat_idle_turn): everything the loop touches every
        # turn is a local, and rare work hides behind a deque
        # truthiness check.  A burst is a call that yields only when
        # its continuation had to be scheduled (SimOS.cpu).
        cpu = self.simos.cpu
        costs = self.costs
        clock = self.clock
        engine = self.engine
        driver = self.driver
        policy = self.policy
        ready = policy.ready
        # constants of the run
        pick_cost_ns = costs.priority_pick_ns
        gate_cost_ns = policy.gate_cost_ns()
        source = self.source
        profile = driver.profile
        io_history = self.io_history
        sq = self.qpair.sq
        internal = self._internal
        flushes = self._deferred_flushes
        escalations = self._deferred_escalations
        poller = self.dedicated_poller is not None
        while True:
            worked = False
            dispatched = engine.dispatched

            new_ops = source.poll(clock.now)
            if internal:
                new_ops.extend(internal)
                internal.clear()
            if new_ops:
                cpu(costs.admit_ns * len(new_ops), CPU_SCHED) or (yield)
                for op in new_ops:
                    self._admit(op)
                worked = True

            # drain deferred page writes (buffer evictions, sync
            # flushes) while the submission queue has headroom -- a
            # large sync() must not overrun the ring
            while flushes and sq.free_slots > 64:
                lba, data, flush_op = flushes.popleft()
                cpu(profile.submit_cpu_ns, CPU_NVME) or (yield)
                self._submit_page_write(lba, data, flush_op)
                worked = True

            # re-drive failed writes that could not be resubmitted from
            # callback context because the submission ring was full
            while escalations and sq.free_slots > 8:
                deferred = escalations.popleft()
                cpu(profile.submit_cpu_ns, CPU_NVME) or (yield)
                self._resubmit_write(*deferred)
                worked = True

            if ready:
                cpu(pick_cost_ns, CPU_SCHED) or (yield)
                op = policy.pick()
                tracer = self.tracer
                if tracer.enabled:
                    span = tracer.begin(
                        self._track,
                        "process:%s" % op.kind,
                        cat="worker",
                        args={"seq": op.seq},
                    )
                    yield from self._process(op)
                    tracer.end(span, args={"state": op.state})
                else:
                    yield from self._process(op)
                worked = True

            # a turn that comes this far with nothing done is idle: all
            # it can still do is charge the gate, probe, spin or sleep
            idle = not (worked or poller)
            gate_cost = 0
            probed = None
            if not poller and io_history.outstanding_count:
                gate_cost = gate_cost_ns
                if gate_cost:
                    cpu(gate_cost, CPU_SCHED) or (yield)
                    worked = True
                probed = policy.should_probe()
                if probed:
                    tracer = self.tracer
                    probe_start_ns = clock.now if tracer.enabled else 0
                    cpu(profile.probe_cpu_ns, CPU_NVME) or (yield)
                    completed = driver.probe(self.qpair)
                    self.probes.add()
                    policy.note_probe(clock.now)
                    if completed:
                        cpu(
                            len(completed) * profile.probe_cpu_per_completion_ns,
                            CPU_NVME,
                        ) or (yield)
                        idle = False
                    if tracer.enabled:
                        tracer.complete(
                            self._track,
                            "probe",
                            probe_start_ns,
                            clock.now,
                            cat="worker",
                            args={"completions": len(completed)},
                        )
                    worked = True
                else:
                    self.probe_skips.add()

            # the one "has deferred work" predicate: with any of it
            # queued the worker neither finishes nor idles
            if not (internal or flushes or escalations):
                if (
                    self.inflight == 0
                    and self._background_outstanding == 0
                    and source.exhausted()
                ):
                    break
                if not ready:
                    sleep_ns = policy.idle_sleep_ns()
                    next_arrival = source.next_event_ns(clock.now)
                    if sleep_ns > 0:
                        if next_arrival is not None:
                            sleep_ns = min(
                                sleep_ns, max(1, next_arrival - clock.now)
                            )
                        self.idle_yields.add()
                        yield Sleep(sleep_ns)
                    else:
                        spun = not worked
                        if spun:
                            self.idle_spins.add()
                            cpu(costs.idle_spin_ns, CPU_SCHED) or (yield)
                        # no event since the turn began: every burst
                        # went by in place, so what the turn read at its
                        # start it would read again now
                        if (
                            idle
                            and engine.dispatched == dispatched
                            and not self.tracer.enabled
                        ):
                            self._repeat_idle_turn(
                                gate_cost, probed, spun, next_arrival
                            )

        self._shutdown = True

    def _repeat_idle_turn(self, gate_cost, probed, spun, next_arrival):
        """Take the turns that would be the last one over again at once.

        The turn that just ended admitted and processed nothing, found
        nothing deferred or ready, saw no event run, and spent one CPU
        burst: the gate before a declined probe, the probe of an empty
        queue (``probed``; None with no I/O outstanding) or the spin.
        Whatever it read stays as it is until another event runs, an
        operation falls due, a completion is posted (what a probe reads:
        a post turns visible with no event, ``Engine.settle``) or the
        policy stops answering the same, so the policy
        (``idle_repeats``), the source and, for probes, the next post
        bound how many such turns follow, the kernel grants those of
        them that nothing would interrupt (``SimOS.cpu_repeat``), and
        what that many turns book is booked here in one go.  What is
        left runs as ordinary turns.
        """
        if spun:
            if probed is not None:
                return  # declined for free, then spun: no stock policy
            step_ns, category = self.costs.idle_spin_ns, CPU_SCHED
        elif not probed:
            step_ns, category = gate_cost, CPU_SCHED
        elif not gate_cost:
            step_ns, category = self.driver.profile.probe_cpu_ns, CPU_NVME
        else:
            return  # gate, then probe: two bursts, and no policy repeats it
        if step_ns <= 0:
            return
        repeats = self.policy.idle_repeats(step_ns, bool(probed))
        # the source promises empty polls before next_arrival only, and
        # an empty probe stays empty only until the next post
        until_ns = next_arrival
        if probed:
            post_ns = self.engine.next_passive_ns()
            if post_ns is not None and (until_ns is None or post_ns < until_ns):
                until_ns = post_ns
        if until_ns is not None:
            repeats = min(repeats, (until_ns - self.clock.now - 1) // step_ns)
        if repeats <= 0:
            return
        taken = self.simos.cpu_repeat(step_ns, category, repeats)
        if not taken:
            return
        if spun:
            self.idle_spins.add(taken)
        elif probed:
            self.probes.add(taken)
            self.driver.probe_empty_repeat(taken, step_ns)
            self.policy.note_probe(self.clock.now)
        else:
            self.probe_skips.add(taken)

    # ------------------------------------------------------------------
    # operation lifecycle
    # ------------------------------------------------------------------

    def _admit(self, op):
        op.seq = self._next_seq
        self._next_seq += 1
        op.admit_ns = self.clock.now
        op.gen = self._make_plan(op)
        op.state = ST_READY
        self.inflight += 1
        if self.tracer.enabled:
            self.tracer.async_begin(
                "op", op.seq, op.kind, args={"key": op.key}
            )
        self.policy.on_ready(op)

    def _park_for_io(self, op, ios=None):
        """``op`` waits for the I/O it just submitted (``ios`` commands)."""
        op.state = ST_IO_WAIT
        if self.tracer.enabled:
            self.tracer.async_instant(
                "op", op.seq, "io_wait",
                args=None if ios is None else {"ios": ios},
            )

    def _complete(self, op):
        op.state = ST_DONE
        op.done_ns = self.clock.now
        self.inflight -= 1
        self.completed.add()
        self._account(op)
        if self.tracer.enabled:
            self.tracer.async_end("op", op.seq, op.kind)
        if self.on_op_complete:
            for observer in self.on_op_complete:
                observer(op)
        if op.kind not in self.internal_kinds:
            self.source.on_op_complete(op)

    def _abort_op(self, op, error):
        """Terminate ``op`` with a typed error, releasing what it holds."""
        if error is not None and op.error is None:
            op.error = error
        op.result = None
        op.step = None
        if op.gen is not None:
            op.gen.close()
        self._release_latches(op)
        self.failed_ops.add()
        if self.tracer.enabled:
            self.tracer.async_instant(
                "op", op.seq, "aborted", args={"error": str(op.error)}
            )
        self._complete(op)

    def _release_latches(self, op):
        """Seam: a latch-free structure has nothing to hand back."""

    def _write_done(self, op, error=None):
        """One write ``op`` waits for is over: landed, or lost with
        ``error``.  After the last one ``op`` aborts if any was lost,
        else it is ready again.  Completion-callback context."""
        if error is not None and op.error is None:
            op.error = error
        op.io_remaining -= 1
        if op.io_remaining == 0:
            if op.error is not None:
                self._abort_op(op, None)
            else:
                op.state = ST_READY
                self.policy.on_ready(op)

    # ------------------------------------------------------------------
    # failure handling
    # ------------------------------------------------------------------

    def _error_from(self, completion):
        command = completion.command
        status = completion.status
        cls = RetryExhaustedError if status.retriable else IoError
        return cls(
            "%s of lba %d failed with status %s (retries=%d)"
            % (command.opcode, command.lba, status, command.retries),
            status=status,
            opcode=command.opcode,
            lba=command.lba,
        )

    def _escalate_write(self, completion, callback):
        """Re-drive a failed write (fresh command, escalation carried).

        Failed writes are never dropped: the in-memory structure
        already reflects the mutation, so the page must eventually land
        or be explicitly declared lost.  Returns False once the
        escalation budget is spent — the caller declares the loss.
        """
        command = completion.command
        if command.escalations >= self.max_write_escalations:
            return False
        self.io_escalations.add()
        self._resubmit_write(
            command.lba, command.data, command.context, callback,
            command.escalations + 1,
        )
        return True

    def _resubmit_write(self, lba, data, context, callback, escalations):
        """Submit a write from callback context, deferring on a full ring."""
        try:
            command = self.driver.write(
                self.qpair, lba, data, callback=callback, context=context
            )
        except QueueFullError:
            self._deferred_escalations.append(
                (lba, data, context, callback, escalations)
            )
            return
        command.escalations = escalations
        self.io_history.on_submit(command)

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------

    def register_metrics(self, registry, labels=None):
        """Expose the worker's common block through a metric registry.

        Fans out to the driver (which covers the device), the queue
        pair and the scheduling policy; subclasses add their own rows.
        All registrations are callback-backed; nothing is added to the
        hot path.
        """
        prefix = self.metric_prefix
        for attr, help_text in _COUNTERS:
            registry.counter(
                "%s_%s_total" % (prefix, attr), labels,
                fn=lambda attr=attr: getattr(self, attr).value,
                help=help_text,
            )
        registry.gauge(
            prefix + "_inflight_ops", labels,
            fn=lambda: self.inflight,
            help="admitted operations not yet complete",
        )
        registry.gauge(
            prefix + "_outstanding_io_count", labels,
            fn=lambda: self.io_history.outstanding_count,
            help="worker-submitted I/Os awaiting completion",
        )
        self.driver.register_metrics(registry, labels=labels)
        self.qpair.register_metrics(registry, labels=labels)
        self.policy.register_metrics(registry, labels=labels)
        return registry

    def stats(self):
        """Totals snapshot; harnesses diff two snapshots for a window."""
        return {
            "completed": self.completed.value,
            "probes": self.probes.value,
            "mean_latency_us": self.latencies.mean_usec(),
            "p99_latency_us": self.latencies.p99_usec(),
            "io_errors": self.io_errors.value,
            "failed_ops": self.failed_ops.value,
            "io_retries": self.driver.retries_scheduled.value,
            "io_escalations": self.io_escalations.value,
            "lost_writes": self.lost_writes.value,
        }
