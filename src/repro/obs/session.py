"""TraceSession: attach the full observability stack to one machine.

A session owns a :class:`~repro.obs.tracer.Tracer`, a set of named
probes sampled every ``sample_interval_ns`` of virtual time and latency
recorders (exported as fixed-bucket histograms), and subscribes them
(:mod:`repro.sim.hooks`) to the stack's observer slots:

* ``Engine.on_dispatch`` — kernel event accounting,
* ``NvmeDevice.on_submit`` / ``on_complete`` — per-I/O async spans and
  read/write latency histograms (with fetch/post breakdown args),
* ``NvmeDriver.on_retry`` — retry instants,
* ``SimOS.on_thread_state`` — on-core slices per simulated thread,
* worker ``tracer`` / ``on_op_complete`` — operation lifecycle spans
  and per-kind operation latency histograms.

None of the callbacks charges virtual CPU or mutates simulation state,
so a traced run reaches the same virtual-time results as an untraced
one; with no session attached every slot stays ``()`` and the only cost
is one attribute check.  The subscription ledger, ``start`` / ``finish``
and the fleet walk are :class:`~repro.obs.observer.ObserverSession`'s,
so a trace session composes with a
:class:`~repro.obs.health.MetricsSession` or the fuzz harness in any
attach and finish order.
"""

from repro.nvme.command import OP_READ
from repro.obs.export import trace_summary, write_chrome_trace, write_jsonl
from repro.obs.observer import ObserverSession
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.clock import usec
from repro.sim.metrics import LatencyRecorder
from repro.simos.thread import T_RUNNING


class TraceSession(ObserverSession):
    """One recording of one simulated machine (or fleet)."""

    def __init__(self, engine, sample_interval_ns=usec(100)):
        super().__init__(engine, sample_interval_ns)
        self.tracer = Tracer(engine.clock)
        self._probes = []  # (name, fn), registration order
        self.read_latency = LatencyRecorder()
        self.write_latency = LatencyRecorder()
        self.op_latency = {}  # op kind -> LatencyRecorder
        self.dispatches = 0
        self.io_faults = 0
        self.io_retries = 0
        self.failed_ops = 0
        self._io_seq = 0
        self._io_ids = {}
        self._running_since = {}  # tid -> (start_ns, core_index)
        self._simos = None
        self._buffer = None
        self._workers = []
        self._subscribe(engine, "on_dispatch", self._on_dispatch)

    # ------------------------------------------------------------------
    # attachment
    # ------------------------------------------------------------------

    def attach_device(self, device, shard=None):
        """Hook one simulated NVMe device into the recording.

        A session can observe several devices (each shard of a
        :class:`~repro.shard.ShardedPaTree` may own one); a ``shard``
        index namespaces the sampled series (``shard<i>_outstanding``).
        Without one the single-device series names are kept.
        """
        self._subscribe(device, "on_submit", self._on_io_submit)
        self._subscribe(device, "on_complete", self._on_io_complete)
        if shard is None:
            outstanding, util = "device_outstanding", "channel_util"
        else:
            outstanding = "shard%d_outstanding" % shard
            util = "shard%d_channel_util" % shard
        self._probes += [
            (outstanding, lambda: device.outstanding.value),
            (util, device.channel_busy_ratio),
        ]
        return self

    def attach_simos(self, simos):
        self._simos = simos
        self._subscribe(simos, "on_thread_state", self._on_thread_state)
        return self

    def _attach_router(self, sharded):
        self.attach_simos(sharded.simos)

    def attach_worker(self, worker, shard=None):
        """Wire a PA-Tree engine or PA-LSM worker into the session.

        As with :meth:`attach_device`, a ``shard`` index namespaces the
        sampled series so several shard workers stay distinguishable in
        one recording.
        """
        self._workers.append(worker)
        worker.tracer = self.tracer
        self._subscribe(worker, "on_op_complete", self._on_op_complete)
        self._subscribe(worker.backend.driver, "on_retry", self._on_io_retry)
        prefix = "" if shard is None else "shard%d_" % shard
        self._probes += [
            (prefix + "ready_ops", worker.policy.ready_count),
            (prefix + "inflight_ops", lambda: worker.inflight),
            (
                prefix + "outstanding_ios",
                lambda: worker.io_history.outstanding_count,
            ),
        ]
        return self

    def attach_buffer(self, buffer):
        if buffer is None:
            return self
        self._buffer = buffer
        self._probes += [
            ("buffer_hit_rate", buffer.hit_rate),
            ("buffer_dirty", lambda: buffer.dirty_count),
        ]
        return self

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def finish(self):
        """Stop sampling and take this session's callbacks (only) back
        out of every slot; the workers get their null tracer back."""
        super().finish()
        for worker in self._workers:
            if worker.tracer is self.tracer:
                worker.tracer = NULL_TRACER
        return self

    # ------------------------------------------------------------------
    # hook callbacks (read-only with respect to simulation state)
    # ------------------------------------------------------------------

    def _sample(self):
        row = {}
        for name, fn in self._probes:
            value = fn()
            if value is not None:
                row[name] = value
        if row:
            self.tracer.counter("metrics", "samples", row)
        return row

    def _on_dispatch(self, event):
        self.dispatches += 1

    def _on_io_submit(self, command):
        aid = self._io_seq
        self._io_seq += 1
        self._io_ids[command] = aid
        self.tracer.async_begin(
            "io", aid, command.opcode, args={"lba": command.lba}
        )

    def _on_io_complete(self, completion):
        command = completion.command
        if completion.ok:
            latency = command.visible_ns - command.submit_ns
            if command.opcode == OP_READ:
                self.read_latency.record(latency)
            else:
                self.write_latency.record(latency)
        else:
            self.io_faults += 1
        aid = self._io_ids.pop(command, None)
        if aid is None:
            return
        args = {
            "lba": command.lba,
            "fetch_us": (command.fetch_ns - command.submit_ns) / 1000,
            "service_us": (command.complete_ns - command.fetch_ns) / 1000,
            "post_us": (command.visible_ns - command.complete_ns) / 1000,
        }
        if not completion.ok:
            args["status"] = str(completion.status)
        self.tracer.async_end("io", aid, command.opcode, args=args)

    def _on_io_retry(self, completion):
        self.io_retries += 1
        command = completion.command
        self.tracer.instant(
            "io",
            "retry",
            cat="io",
            args={
                "lba": command.lba,
                "status": str(completion.status),
                "attempt": command.retries,
            },
        )

    def _on_thread_state(self, thread, state):
        if state == T_RUNNING:
            if thread.tid not in self._running_since:
                core = thread.core.index if thread.core is not None else -1
                self._running_since[thread.tid] = (self.engine.now, core)
            return
        started = self._running_since.pop(thread.tid, None)
        if started is None:
            return
        start_ns, core = started
        end_ns = self.engine.now
        if end_ns > start_ns:
            self.tracer.complete(
                "thread:%s" % thread.name,
                "on-core",
                start_ns,
                end_ns,
                cat="sched",
                args={"core": core, "to": state},
            )

    def _on_op_complete(self, op):
        if op.error is not None:
            self.failed_ops += 1
            return
        recorder = self.op_latency.get(op.kind)
        if recorder is None:
            recorder = self.op_latency[op.kind] = LatencyRecorder()
        recorder.record(op.latency_ns)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def probe_summary(self):
        """Per-probe min/mean/max/last over all collected samples."""
        out = {}
        for name, _fn in self._probes:
            values = [
                row[name] for _t, row in self.sampler.samples if name in row
            ]
            if not values:
                out[name] = {"samples": 0}
                continue
            out[name] = {
                "samples": len(values),
                "min": min(values),
                "mean": sum(values) / len(values),
                "max": max(values),
                "last": values[-1],
            }
        return out

    def cpu_account(self):
        if self._simos is None:
            return None
        return self._simos.cpu_account()

    def summary_text(self, out=None):
        return trace_summary(self.tracer, cpu_account=self.cpu_account(), out=out)

    def bench_summary(self):
        """Machine-readable summary for ``BENCH_*.json`` artefacts."""
        buffer_stats = (
            self._buffer.snapshot() if self._buffer is not None else None
        )
        summary = {
            "buffer": buffer_stats,
            "dispatched_events": self.dispatches,
            "trace_events": len(self.tracer.events),
            "trace_events_dropped": self.tracer.dropped,
            "io_latency": {
                "read": self.read_latency.snapshot(),
                "write": self.write_latency.snapshot(),
            },
            "op_latency": {
                kind: recorder.snapshot()
                for kind, recorder in sorted(self.op_latency.items())
            },
            "timeseries": {
                "interval_us": self.sampler.interval_ns / 1000,
                "probes": self.probe_summary(),
            },
        }
        # fault-path keys only appear when something actually failed so
        # fault-free artefacts stay byte-identical to pre-fault builds
        if self.io_faults or self.io_retries or self.failed_ops:
            summary["faults"] = {
                "io_faults": self.io_faults,
                "io_retries": self.io_retries,
                "failed_ops": self.failed_ops,
            }
        return summary

    def write_artifacts(self, prefix):
        """Write ``<prefix>.trace.json`` and ``<prefix>.trace.jsonl``."""
        trace_path = write_chrome_trace(self.tracer, prefix + ".trace.json")
        jsonl_path = write_jsonl(self.tracer, prefix + ".trace.jsonl")
        return trace_path, jsonl_path
