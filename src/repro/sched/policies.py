"""Probing-strategy baselines (Fig 10).

* :class:`FixedRateProbing` — probe every ``omega`` microseconds, the
  paper's pre-defined fixed-rate strategy (``omega = 0`` probes on
  every loop iteration).
* :class:`AvgLatencyProbing` — probe every ``avg(t)`` microseconds
  where ``avg(t)`` is the mean I/O completion latency over the last
  second, the paper's first naive dynamic strategy.

Both process ready operations FIFO and sleep until the next probe
instant when idle, isolating the probing strategy as the only
difference from the workload-aware policy.
"""

from repro.sched.base import SchedulingPolicy
from repro.sim.clock import usec


class _TimerProbing(SchedulingPolicy):
    """Shared machinery: probe when a (possibly dynamic) period elapsed."""

    def __init__(self):
        super().__init__()
        self._last_probe_ns = None

    def period_ns(self):
        raise NotImplementedError

    def should_probe(self):
        if self.engine.io_history.outstanding_count == 0:
            return False
        if self._last_probe_ns is None:
            return True
        return self.engine.clock.now - self._last_probe_ns >= self.period_ns()

    def note_probe(self, now_ns):
        self._last_probe_ns = now_ns

    def idle_sleep_ns(self):
        if self.engine.io_history.outstanding_count == 0:
            return usec(20)
        if self._last_probe_ns is None:
            return 0
        remaining = self.period_ns() - (self.engine.clock.now - self._last_probe_ns)
        return max(0, remaining)


class FixedRateProbing(_TimerProbing):
    """Probe every ``omega_us`` microseconds."""

    name = "fixed_rate"

    def __init__(self, omega_us):
        super().__init__()
        if omega_us < 0:
            raise ValueError("omega must be non-negative")
        self.omega_ns = usec(omega_us)

    def period_ns(self):
        return self.omega_ns


class AvgLatencyProbing(_TimerProbing):
    """Probe every mean-completion-latency microseconds."""

    name = "avg_latency"

    def __init__(self):
        super().__init__()
        # the period before any I/O has completed
        self.fallback_ns = usec(100)

    def bind(self, engine):
        super().bind(engine)
        engine.io_history.keep_latency_window()

    def period_ns(self):
        average = self.engine.io_history.avg_completion_latency_ns()
        return average if average > 0 else self.fallback_ns
