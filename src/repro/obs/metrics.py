"""The labeled metric registry and its exporters.

Every layer of the simulated stack can describe itself as a set of
**metrics**: monotone counters (completions, retries, faults), gauges
(queue depth, channel occupancy, buffer residency) and latency
histograms (each a :class:`~repro.sim.metrics.LatencyRecorder`, exported
as its fixed-bucket snapshot).  A :class:`MetricRegistry` holds them
under a ``(name, labels)`` identity — the same metric name registered
with different label sets (``shard="0"`` vs ``shard="1"``) stays
distinguishable while rollups can still sum across the label axis.

Naming discipline (enforced here at registration time): metric names
are ``snake_case`` and end in a unit suffix from
:data:`METRIC_NAME_SUFFIXES`, so a consumer can always tell
nanoseconds from pages from ratios without a side channel.

Determinism: the registry iterates in registration order, label keys
are sorted inside each identity, and every exporter (the Prometheus
text below, a metrics session's JSONL scrape rows) writes from those
orders only — two same-seed runs produce byte-identical exports.  Components hold no registry:
they register (``register_metrics``) only when a session attaches, so
an unobserved run never touches this module.
"""

import re

from repro.errors import ReproError
from repro.sim.clock import to_usec
from repro.sim.metrics import LatencyRecorder

#: Unit suffixes a registered metric name must end with.
METRIC_NAME_SUFFIXES = (
    "_ns",
    "_us",
    "_bytes",
    "_pages",
    "_ops",
    "_total",
    "_ratio",
    "_count",
    "_size",
)

_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")


class MetricError(ReproError):
    """A metric was registered or used against the registry contract."""


def validate_metric_name(name):
    """Raise :class:`MetricError` unless ``name`` obeys the discipline."""
    if not _NAME_RE.match(name):
        raise MetricError(
            "metric name %r is not snake_case ([a-z][a-z0-9_]*)" % (name,)
        )
    if not name.endswith(METRIC_NAME_SUFFIXES):
        raise MetricError(
            "metric name %r lacks a unit suffix (one of %s)"
            % (name, ", ".join(METRIC_NAME_SUFFIXES))
        )


def _normalize_labels(labels):
    """Sorted ``(key, str(value))`` tuple — the label part of identity."""
    if not labels:
        return ()
    return tuple(
        (str(key), str(labels[key])) for key in sorted(labels)
    )


def flat_name(name, label_items):
    """``name{k="v",...}`` rendering shared by the exporters."""
    if not label_items:
        return name
    inner = ",".join('%s="%s"' % (key, value) for key, value in label_items)
    return "%s{%s}" % (name, inner)


class Metric:
    """Base of all registered metrics; identity is ``(name, labels)``."""

    kind = "metric"
    __slots__ = ("name", "labels", "help")

    def __init__(self, name, labels, help=""):
        self.name = name
        self.labels = labels  # normalized (key, value) tuple
        self.help = help

    @property
    def flat(self):
        return flat_name(self.name, self.labels)

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self.flat)


class CounterMetric(Metric):
    """Monotone event count.

    Either owned (``inc()``) or a *callback counter* reading an
    existing cumulative quantity (``fn``) — the stack already counts
    completions/retries/faults in always-on ``sim.metrics.Counter``
    objects, and a callback counter exports those without double
    bookkeeping on the hot path.
    """

    kind = "counter"
    __slots__ = ("value", "_fn")

    def __init__(self, name, labels, fn=None, help=""):
        super().__init__(name, labels, help)
        self.value = 0
        self._fn = fn

    def inc(self):
        self.value += 1

    def read(self):
        if self._fn is not None:
            return self._fn()
        return self.value


class GaugeMetric(Metric):
    """Point-in-time quantity; callback-backed or explicitly ``set``."""

    kind = "gauge"
    __slots__ = ("value", "_fn")

    def __init__(self, name, labels, fn=None, help=""):
        super().__init__(name, labels, help)
        self.value = 0
        self._fn = fn

    def set(self, value):
        self.value = value

    def read(self):
        if self._fn is not None:
            return self._fn()
        return self.value


class HistogramMetric(Metric, LatencyRecorder):
    """A latency distribution: a :class:`~repro.sim.metrics.LatencyRecorder`
    under a ``(name, labels)`` identity.

    Values are recorded in the unit the name declares (``_ns`` names
    record nanoseconds); exporters write its ``snapshot()`` buckets.
    """

    kind = "histogram"

    def __init__(self, name, labels, help=""):
        Metric.__init__(self, name, labels, help)
        LatencyRecorder.__init__(self)

    def read(self):
        return len(self)


class MetricRegistry:
    """Labeled metrics under ``(name, labels)`` identity.

    Registration is idempotent: asking for an identity that already
    exists returns the existing instance (so per-shard attach loops and
    re-attachment are safe), but re-registering under a different
    metric kind is an error.  Iteration yields metrics in first
    registration order — the deterministic order every exporter uses.
    """

    def __init__(self):
        self._metrics = {}  # (name, labels) -> Metric, insertion-ordered

    # -- registration --------------------------------------------------

    def counter(self, name, labels=None, fn=None, help=""):
        return self._register(CounterMetric, name, labels, help, fn=fn)

    def gauge(self, name, labels=None, fn=None, help=""):
        return self._register(GaugeMetric, name, labels, help, fn=fn)

    def histogram(self, name, labels=None, help=""):
        return self._register(HistogramMetric, name, labels, help)

    def _register(self, cls, name, labels, help, **kwargs):
        validate_metric_name(name)
        identity = (name, _normalize_labels(labels))
        existing = self._metrics.get(identity)
        if existing is not None:
            if type(existing) is not cls:
                raise MetricError(
                    "metric %s already registered as a %s, not a %s"
                    % (flat_name(*identity), existing.kind, cls.kind)
                )
            return existing
        metric = cls(identity[0], identity[1], help=help, **kwargs)
        self._metrics[identity] = metric
        return metric

    # -- access --------------------------------------------------------

    def get(self, name, labels=None):
        """The registered metric, or None."""
        return self._metrics.get((name, _normalize_labels(labels)))

    def __iter__(self):
        return iter(list(self._metrics.values()))

    def __len__(self):
        return len(self._metrics)

    def collect(self):
        """All metrics, in registration order (a fresh list)."""
        return list(self._metrics.values())

    # -- snapshots -----------------------------------------------------

    def scalars(self):
        """Flat-name -> value for counters and gauges, registry order."""
        row = {}
        for metric in self._metrics.values():
            if metric.kind in ("counter", "gauge"):
                row[metric.flat] = metric.read()
        return row

    def snapshot(self):
        """Machine-readable dump of every metric (fresh dict per call).

        Histograms expand to their summary snapshot (count / mean /
        percentiles / buckets, microsecond units as in
        :meth:`repro.sim.metrics.LatencyRecorder.snapshot`).
        """
        out = {}
        for metric in self._metrics.values():
            if metric.kind == "histogram":
                out[metric.flat] = metric.snapshot()
            else:
                out[metric.flat] = metric.read()
        return out


# ---------------------------------------------------------------------------
# exporters
# ---------------------------------------------------------------------------


def _format_number(value):
    """Prometheus-style number rendering (ints stay ints)."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def prometheus_text(registry):
    """Render the registry in the Prometheus text exposition format.

    Output order is registration order grouped by metric name (the
    ``# TYPE`` header is emitted once per name), so same-seed runs
    produce byte-identical exports.  Histograms expand to cumulative
    ``_bucket{le=...}`` series plus ``_sum`` and ``_count``, with
    nanosecond-recorded values exposed in microseconds to match the
    run summaries.
    """
    lines = []
    typed = set()
    for metric in registry.collect():
        if metric.name not in typed:
            typed.add(metric.name)
            if metric.help:
                lines.append("# HELP %s %s" % (metric.name, metric.help))
            lines.append("# TYPE %s %s" % (metric.name, metric.kind))
        if metric.kind == "histogram":
            lines.extend(_prom_histogram_lines(metric))
        else:
            lines.append(
                "%s %s" % (metric.flat, _format_number(metric.read()))
            )
    return "\n".join(lines) + "\n"


def _prom_histogram_lines(metric):
    snapshot = metric.snapshot()
    cumulative = 0
    for bucket in snapshot["buckets"]:
        cumulative += bucket["count"]
        edge = bucket["le_us"]
        le = "+Inf" if edge == "inf" else repr(edge)
        labels = metric.labels + (("le", le),)
        yield "%s %d" % (
            flat_name(metric.name + "_bucket", labels),
            cumulative,
        )
    yield "%s %s" % (
        flat_name(metric.name + "_sum", metric.labels),
        _format_number(to_usec(sum(metric.samples()))),
    )
    yield "%s %d" % (
        flat_name(metric.name + "_count", metric.labels),
        snapshot["count"],
    )


def write_prometheus(registry, path):
    """Write :func:`prometheus_text` to ``path``; returns the path."""
    with open(path, "w") as handle:
        handle.write(prometheus_text(registry))
    return path
