"""Observability: tracing and metrics for the simulated PA-Tree stack.

The paper's claims rest on *accounted* quantities — latency breakdowns,
queue depth over time, CPU-cycle splits.  This package makes a run
inspectable instead of only aggregable:

* :mod:`repro.obs.tracer` — per-operation lifecycle spans and instant
  events recorded in virtual time with deterministic IDs.
* :mod:`repro.obs.series` — fixed-bucket latency histograms and the
  one periodic virtual-time sampler: it appends ``(now, read())`` per
  tick, whatever its owning session reads.
* :mod:`repro.obs.export` — Chrome/Perfetto ``trace_event`` JSON and
  newline-delimited JSONL exporters, plus a text "top spans" summary.
* :mod:`repro.obs.observer` — :class:`ObserverSession`, the skeleton
  both sessions share: the sampler over the session's ``_sample()``,
  the subscription ledger (:mod:`repro.sim.hooks`), ``start`` /
  ``finish`` and ``attach_sharded``, the one fleet walk over a
  session's ``attach_device`` / ``attach_worker``.
* :mod:`repro.obs.session` — :class:`TraceSession`, which attaches the
  tracer, sampled probes and histograms to a simulated machine through
  its observer slots (``engine.on_dispatch``, device completion slots,
  scheduler transition callbacks).
* :mod:`repro.obs.metrics` — the labeled metric registry
  (Counter/Gauge/Histogram under ``(name, labels)`` identity) and the
  Prometheus-text exporter.
* :mod:`repro.obs.slo` — per-op-class virtual-time latency targets
  with p99/p999 and violation counters per shard.
* :mod:`repro.obs.flight` — a bounded ring of recent completions,
  retries and transitions, dumped as a postmortem when a typed
  ``IoError`` escalates.
* :mod:`repro.obs.health` — :class:`MetricsSession`, which wires the
  registry, SLO tracker and flight recorder into a run and samples the
  registry's scalars into a JSONL scrape.

Everything is zero-overhead-when-disabled: components hold a
:data:`~repro.obs.tracer.NULL_TRACER` whose ``enabled`` flag gates every
record call behind a single attribute check, metric registration only
happens when a session attaches, and the observer slots default to
``()``.  Sessions add and remove only their own callbacks, so a trace
session, a metrics session and the fuzz harness compose in any attach
and finish order.  A further observer subclasses
:class:`ObserverSession` and implements ``attach_device``,
``attach_worker``, ``_sample`` and ``_attach_router``.
"""

from repro.obs.export import (
    chrome_trace_events,
    to_chrome_trace,
    trace_summary,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.flight import FlightRecorder
from repro.obs.health import MetricsSession
from repro.obs.metrics import (
    METRIC_NAME_SUFFIXES,
    MetricError,
    MetricRegistry,
    prometheus_text,
    write_prometheus,
)
from repro.obs.observer import ObserverSession
from repro.obs.series import Histogram, TimeSeriesSampler
from repro.obs.session import TraceSession
from repro.obs.slo import DEFAULT_TARGETS_US, SloTracker
from repro.obs.tracer import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "Histogram",
    "TimeSeriesSampler",
    "ObserverSession",
    "TraceSession",
    "chrome_trace_events",
    "to_chrome_trace",
    "trace_summary",
    "write_chrome_trace",
    "write_jsonl",
    "METRIC_NAME_SUFFIXES",
    "MetricError",
    "MetricRegistry",
    "prometheus_text",
    "write_prometheus",
    "DEFAULT_TARGETS_US",
    "SloTracker",
    "FlightRecorder",
    "MetricsSession",
]
