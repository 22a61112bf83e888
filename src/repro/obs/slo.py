"""Per-op-class latency SLOs over the metric registry.

The ROADMAP's QoS front-end needs "is this run healthy?" answerable as
a table: for each operation class (and shard, when sharded), the
observed p99/p999 against a virtual-time latency target plus a count of
individual completions that blew the target.  :class:`SloTracker` is
that layer — it owns nothing but targets, and writes every observation
into labeled ``op_latency_ns`` histograms and ``slo_violations_total``
counters in a :class:`~repro.obs.metrics.MetricRegistry`, so the SLO
view and the raw metric view can never disagree.

Targets are in **microseconds** of virtual time (the unit the paper's
figures use); observations arrive in nanoseconds straight from
``op.latency_ns``.
"""

from repro.sim.clock import to_usec, usec

#: Default virtual-time latency targets (microseconds) per op class.
#: Point lookups and mutations share a budget comfortably above the
#: simulated NVMe read service time; scans and syncs touch many pages
#: and get proportionally looser budgets.
DEFAULT_TARGETS_US = {
    "search": 500.0,
    "insert": 500.0,
    "update": 500.0,
    "delete": 500.0,
    "range": 2_000.0,
    "sync": 20_000.0,
}

_DEFAULT_TARGET_US = 1_000.0


class SloTracker:
    """Tracks per-(op class, shard) latency against virtual-time targets."""

    def __init__(self, registry, targets_us=None):
        self.registry = registry
        self.targets_us = dict(DEFAULT_TARGETS_US)
        if targets_us:
            self.targets_us.update(targets_us)
        self._cells = {}  # (kind, shard) -> (target_ns, histogram, violations)

    def target_us(self, kind):
        return self.targets_us.get(kind, _DEFAULT_TARGET_US)

    def _cell(self, kind, shard):
        cell = self._cells.get((kind, shard))
        if cell is None:
            labels = {"op": kind}
            if shard is not None:
                labels["shard"] = str(shard)
            cell = (
                usec(self.target_us(kind)),
                self.registry.histogram(
                    "op_latency_ns",
                    labels,
                    help="per-op-class completion latency",
                ),
                self.registry.counter(
                    "slo_violations_total",
                    labels,
                    help="completions over the op class latency target",
                ),
            )
            self._cells[(kind, shard)] = cell
        return cell

    def observe(self, kind, latency_ns, shard=None):
        """Record one completion latency (nanoseconds)."""
        target_ns, histogram, violations = self._cell(kind, shard)
        histogram.record(latency_ns)
        if latency_ns > target_ns:
            violations.inc()

    # -- reporting -----------------------------------------------------

    def table(self):
        """SLO rows in first-observation order (fresh list of dicts)."""
        rows = []
        for (kind, shard), cell in self._cells.items():
            target_ns, histogram, violations = cell
            snapshot = histogram.snapshot()
            rows.append(
                {
                    "op": kind,
                    "shard": "-" if shard is None else str(shard),
                    "count": snapshot["count"],
                    "p99_us": snapshot["p99_us"],
                    "p999_us": snapshot["p999_us"],
                    "target_us": to_usec(target_ns),
                    "violations": violations.read(),
                }
            )
        return rows

    def total_violations(self):
        return sum(cell[2].read() for cell in self._cells.values())

    def snapshot(self):
        """Machine-readable SLO summary (fresh dict)."""
        return {
            "targets_us": dict(self.targets_us),
            "rows": self.table(),
            "violations_total": self.total_violations(),
        }

