"""TraceSession: attach the full observability stack to one machine.

A session owns a :class:`~repro.obs.tracer.Tracer`, a periodic
:class:`~repro.obs.series.TimeSeriesSampler` and a set of fixed-bucket
latency histograms, and subscribes them (:mod:`repro.sim.hooks`) to the
stack's observer slots:

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
is one attribute check.  A session adds and removes only its own
callbacks, so it composes with a
:class:`~repro.obs.health.MetricsSession` or the fuzz harness in any
attach and finish order.
"""

from repro.nvme.command import OP_READ
from repro.obs.export import trace_summary, write_chrome_trace, write_jsonl
from repro.obs.series import TimeSeriesSampler, latency_histogram
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.clock import usec
from repro.sim.hooks import subscribe, unsubscribe
from repro.simos.thread import T_RUNNING


class TraceSession:
    """One recording of one simulated machine."""

    def __init__(self, engine, sample_interval_ns=usec(100),
                 max_events=2_000_000):
        self.engine = engine
        self.tracer = Tracer(engine.clock, max_events=max_events)
        self.sampler = TimeSeriesSampler(
            engine, sample_interval_ns, tracer=self.tracer
        )
        self.read_latency = latency_histogram()
        self.write_latency = latency_histogram()
        self.op_latency = {}  # op kind -> Histogram
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
        self._subscriptions = []  # (obj, slot, fn)
        self._subscribe(engine, "on_dispatch", self._on_dispatch)

    # ------------------------------------------------------------------
    # attachment
    # ------------------------------------------------------------------

    def _subscribe(self, obj, slot, fn):
        subscribe(obj, slot, fn)
        self._subscriptions.append((obj, slot, fn))

    def attach_device(self, device, name=None):
        """Hook one simulated NVMe device into the recording.

        A session can observe several devices (each shard of a
        :class:`~repro.shard.ShardedPaTree` owns one); pass ``name``
        to namespace the sampled series (``<name>_outstanding``).
        Without a name the legacy single-device series names are kept.
        """
        self._subscribe(device, "on_submit", self._on_io_submit)
        self._subscribe(device, "on_complete", self._on_io_complete)
        outstanding_name = (name + "_outstanding") if name else "device_outstanding"
        util_name = (name + "_channel_util") if name else "channel_util"
        self.sampler.add_probe(
            outstanding_name, lambda: device.outstanding.value
        )
        self.sampler.add_probe(util_name, device.channel_busy_ratio)
        return self

    def attach_backend(self, backend, name=None):
        """Hook one :class:`~repro.backend.IoBackend` into the recording.

        Taps both planes of the backend: the device's submit/complete
        slots (as :meth:`attach_device`) plus the driver's retry slot.
        Use this when observing a backend without a worker on top;
        :meth:`attach_worker` subscribes the same retry tap itself.
        """
        self.attach_device(backend.device, name=name)
        self._subscribe(backend.driver, "on_retry", self._on_io_retry)
        return self

    def attach_simos(self, simos):
        self._simos = simos
        self._subscribe(simos, "on_thread_state", self._on_thread_state)
        return self

    def attach_worker(self, worker, name=None):
        """Wire a PA-Tree engine or PA-LSM worker into the session.

        As with :meth:`attach_device`, ``name`` namespaces the sampled
        series so several shard workers stay distinguishable in one
        recording.
        """
        self._workers.append(worker)
        worker.tracer = self.tracer
        self._subscribe(worker, "on_op_complete", self._on_op_complete)
        self._subscribe(worker.backend.driver, "on_retry", self._on_io_retry)
        prefix = (name + "_") if name else ""
        self.sampler.add_probe(prefix + "ready_ops", worker.policy.ready_count)
        self.sampler.add_probe(prefix + "inflight_ops", lambda: worker.inflight)
        self.sampler.add_probe(
            prefix + "outstanding_ios",
            lambda: worker.io_history.outstanding_count,
        )
        return self

    def attach_buffer(self, buffer):
        if buffer is None:
            return self
        self._buffer = buffer
        self.sampler.add_probe("buffer_hit_rate", buffer.hit_rate)
        self.sampler.add_probe("buffer_dirty", lambda: buffer.dirty_count)
        return self

    def attach_machine(self, machine, worker=None, buffer=None):
        """Convenience: attach every component of a bench ``_Machine``."""
        self.attach_device(machine.device)
        self.attach_simos(machine.simos)
        if worker is not None:
            self.attach_worker(worker)
        self.attach_buffer(buffer)
        return self

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self):
        self.sampler.start()
        return self

    def finish(self):
        """Stop sampling and take this session's callbacks (only) back
        out of every slot; the workers get their null tracer back."""
        self.sampler.stop()
        for subscription in self._subscriptions:
            unsubscribe(*subscription)
        self._subscriptions = []
        for worker in self._workers:
            if worker.tracer is self.tracer:
                worker.tracer = NULL_TRACER
        return self

    # ------------------------------------------------------------------
    # hook callbacks (read-only with respect to simulation state)
    # ------------------------------------------------------------------

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
        histogram = self.op_latency.get(op.kind)
        if histogram is None:
            histogram = self.op_latency[op.kind] = latency_histogram()
        histogram.record(op.latency_ns)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def cpu_account(self):
        if self._simos is None:
            return None
        return self._simos.cpu_account()

    def summary_text(self, top=15, out=None):
        return trace_summary(
            self.tracer, cpu_account=self.cpu_account(), top=top, out=out
        )

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
                kind: histogram.snapshot()
                for kind, histogram in sorted(self.op_latency.items())
            },
            "timeseries": {
                "interval_us": self.sampler.interval_ns / 1000,
                "probes": self.sampler.summary(),
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
