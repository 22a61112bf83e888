"""MetricsSession: attach the metric/SLO/flight-recorder stack to a run.

The metrics sibling of :class:`~repro.obs.session.TraceSession`: one
session owns a :class:`~repro.obs.metrics.MetricRegistry`, an
:class:`~repro.obs.slo.SloTracker`, a
:class:`~repro.obs.flight.FlightRecorder` and a periodic scrape of
every counter/gauge scalar, and subscribes them (:mod:`repro.sim.hooks`)
to the same observer slots the tracer uses: ``device.on_complete``,
``driver.on_retry``, ``worker.on_op_complete``.  Both sessions
subclass :class:`~repro.obs.observer.ObserverSession`: :meth:`finish`
takes out exactly what the session put in, so a trace session, a
metrics session and the fuzz harness can observe the same run, attached
and finished in any order.

Escalation handling: when a completed operation carries a typed
:class:`~repro.errors.IoError` (retry budget spent, poisoned LBA) the
session captures a flight-recorder postmortem naming the failing LBA
and opcode next to the recent event history.  Postmortem capture is
bounded; the count of dropped ones is kept so nothing fails silently.

With no session attached nothing registers and every slot stays
``()`` — the metrics stack costs exactly zero.
"""

import json
from functools import partial

from repro.errors import IoError
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricRegistry, write_prometheus
from repro.obs.observer import ObserverSession
from repro.obs.slo import SloTracker
from repro.sim.clock import usec

#: Metrics the health report lists, largest first.
REPORT_TOP = 20
#: Postmortems a session keeps; later ones only count as dropped.
MAX_POSTMORTEMS = 16


class MetricsSession(ObserverSession):
    """One metrics recording of one simulated machine (or fleet)."""

    def __init__(
        self,
        engine,
        scrape_interval_ns=usec(500),
        flight_capacity=512,
    ):
        super().__init__(engine, scrape_interval_ns)
        self.registry = MetricRegistry()
        self.slo = SloTracker(self.registry)
        self.flight = FlightRecorder(engine.clock, capacity=flight_capacity)
        self.postmortems = []
        self.postmortems_dropped = 0

    # ------------------------------------------------------------------
    # attachment
    # ------------------------------------------------------------------

    def _shard_labels(self, shard):
        return None if shard is None else {"shard": str(shard)}

    def attach_device(self, device, shard=None):
        """Register a device's metrics and record its completions."""
        device.register_metrics(self.registry, labels=self._shard_labels(shard))
        self._subscribe(device, "on_complete", self._on_io_complete)
        return self

    def attach_worker(self, worker, shard=None):
        """Register a worker stack's metrics and observe its operations.

        The worker's ``register_metrics`` fans out to its driver,
        device, queue pair, latch table, buffer and policy, so one call
        covers the whole shard-local stack.
        """
        worker.register_metrics(self.registry, labels=self._shard_labels(shard))
        self._subscribe(
            worker, "on_op_complete", partial(self._on_op_complete, shard)
        )
        self._subscribe(
            worker.backend.driver, "on_retry", self.flight.record_retry
        )
        return self

    def _attach_router(self, sharded):
        # the router's own rollups register first, unlabeled; per-shard
        # metrics carry a ``shard="<i>"`` label (a shared device none)
        sharded.register_metrics(self.registry)

    # ------------------------------------------------------------------
    # sampling and hook callbacks (read-only w.r.t. simulation state)
    # ------------------------------------------------------------------

    def _sample(self):
        return self.registry.scalars()

    def _on_io_complete(self, completion):
        self.flight.record_completion(
            completion.command, completion.ok, completion.status
        )

    def _on_op_complete(self, shard, op):
        if op.error is None:
            self.flight.record_transition(op, "done")
            self.slo.observe(op.kind, op.latency_ns, shard=shard)
            return
        self.flight.record_error(op.error, op=op)
        if isinstance(op.error, IoError):
            context = {"op_kind": op.kind, "op_seq": op.seq}
            if shard is not None:
                context["shard"] = shard
            if len(self.postmortems) < MAX_POSTMORTEMS:
                self.postmortems.append(
                    self.flight.postmortem(op.error, context=context)
                )
            else:
                self.postmortems_dropped += 1

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def health_report(self, out=None):
        """Human-readable health text: top metrics, SLO table, flight
        summary.  Returns the text; ``out`` (a write-a-line callable)
        receives it line by line when given.
        """
        lines = ["== health: metrics =="]
        scalars = self.registry.scalars()
        ranked = sorted(
            scalars.items(), key=lambda item: (-abs(item[1]), item[0])
        )
        top = ranked[:REPORT_TOP]
        width = max((len(name) for name, _v in top), default=0)
        for name, value in top:
            lines.append("  %-*s %s" % (width, name, value))
        if len(ranked) > REPORT_TOP:
            lines.append("  ... %d more metrics" % (len(ranked) - REPORT_TOP))

        lines.append("")
        lines.append("== health: SLO ==")
        rows = self.slo.table()
        if rows:
            lines.append(
                "  %-8s %-6s %8s %10s %10s %10s %10s"
                % ("op", "shard", "count", "p99_us", "p999_us",
                   "target_us", "violations")
            )
            for row in rows:
                lines.append(
                    "  %-8s %-6s %8d %10.1f %10.1f %10.1f %10d"
                    % (row["op"], row["shard"], row["count"], row["p99_us"],
                       row["p999_us"], row["target_us"], row["violations"])
                )
            lines.append(
                "  total violations: %d" % self.slo.total_violations()
            )
        else:
            lines.append("  (no operations observed)")

        lines.append("")
        lines.append("== health: flight recorder ==")
        summary = self.flight.summary()
        lines.append(
            "  ring %d/%d (recorded %d total)"
            % (summary["in_ring"], summary["capacity"],
               summary["recorded_total"])
        )
        for kind, count in summary["by_kind"].items():
            lines.append("  %-12s %d" % (kind, count))
        lines.append(
            "  postmortems captured: %d (dropped %d)"
            % (len(self.postmortems), self.postmortems_dropped)
        )
        text = "\n".join(lines) + "\n"
        if out is not None:
            for line in lines:
                out(line)
        return text

    def bench_summary(self):
        """Machine-readable summary for ``BENCH_*.json`` artefacts."""
        summary = {
            "metrics": self.registry.snapshot(),
            "slo": self.slo.snapshot(),
            "flight": self.flight.summary(),
            "scrape": {
                "interval_us": self.sampler.interval_ns / 1000,
                "samples": len(self.sampler.samples),
            },
        }
        # postmortem keys only appear when an error actually escalated,
        # so healthy-run artefacts carry no fault-path noise
        if self.postmortems or self.postmortems_dropped:
            summary["postmortems"] = {
                "captured": len(self.postmortems),
                "dropped": self.postmortems_dropped,
                "errors": [
                    {"error": p["error"], "op": p["op"], "lba": p["lba"]}
                    for p in self.postmortems
                ],
            }
        return summary

    def write_artifacts(self, prefix):
        """Write ``<prefix>.metrics.jsonl`` and ``<prefix>.prom`` (plus
        ``<prefix>.postmortem.json`` when any error escalated)."""
        paths = [
            self._write_scrapes(prefix + ".metrics.jsonl"),
            write_prometheus(self.registry, prefix + ".prom"),
        ]
        if self.postmortems:
            path = prefix + ".postmortem.json"
            with open(path, "w") as handle:
                json.dump(
                    {
                        "captured": len(self.postmortems),
                        "dropped": self.postmortems_dropped,
                        "postmortems": self.postmortems,
                    },
                    handle,
                    sort_keys=True,
                    indent=2,
                )
                handle.write("\n")
            paths.append(path)
        return tuple(paths)

    def _write_scrapes(self, path):
        """One JSON object per scrape tick; key order = registry order."""
        with open(path, "w") as handle:
            for time_ns, row in self.sampler.samples:
                handle.write(
                    json.dumps({"t_ns": time_ns, "metrics": row}) + "\n"
                )
        return path
