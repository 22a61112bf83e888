"""Workload-aware scheduling (paper Algorithm 2).

Combines the three optimizations of §IV:

* **model-gated probing** — probe only when the linear-regression
  estimator predicts at least one completed I/O is waiting,
* **prioritized execution** — process write-latch holders first, then
  older operations,
* **CPU yielding** — when the ready set is empty and the model
  predicts no completion now *or* after ``t`` more microseconds, yield
  the core for ``t``.

Each knob can be disabled independently for the ablation experiments
(Fig 12 disables prioritization, Fig 13 disables yielding).
"""

import sys

from repro.sched.base import SchedulingPolicy
from repro.sched.priority import PriorityReadyQueue
from repro.sim.clock import usec

#: How long an idle worker yields its core when the model predicts no
#: completion now or that far ahead.
YIELD_GRANULARITY_US = 50
#: Probe gaps: never probe sooner than the minimum after the last
#: probe, always probe once the maximum has passed.
MIN_PROBE_GAP_US = 3.0
MAX_PROBE_GAP_US = 100.0


class WorkloadAwareScheduling(SchedulingPolicy):
    """Algorithm 2 with switchable prioritization and yielding."""

    name = "workload_aware"

    def __init__(
        self,
        probe_model,
        prioritized=True,
        cpu_yield=True,
    ):
        super().__init__()
        if prioritized:
            self.ready = PriorityReadyQueue()
        self.probe_model = probe_model
        self.prioritized = prioritized
        self.cpu_yield = cpu_yield
        self.yield_ns = usec(YIELD_GRANULARITY_US)
        self._inflight_granule_ns = usec(min(YIELD_GRANULARITY_US, 10))
        self.min_probe_gap_ns = usec(MIN_PROBE_GAP_US)
        self.max_probe_gap_ns = usec(MAX_PROBE_GAP_US)
        self._last_probe_ns = -1

    def bind(self, engine):
        super().bind(engine)
        engine.io_history.use_model(self.probe_model)

    def should_probe(self):
        history = self.engine.io_history
        if history.outstanding_count == 0:
            return False
        now = self.engine.clock.now
        if self._last_probe_ns < 0:
            self._last_probe_ns = now  # start the deadline clock
        gap = now - self._last_probe_ns
        if gap < self.min_probe_gap_ns:
            return False
        # Deadline fallback: a purely model-gated probe can starve
        # detection when few, old I/Os make the prediction hover
        # below one; bound the detection delay (and tail latency).
        if gap >= self.max_probe_gap_ns:
            return True
        return history.predicts_completion()

    def note_probe(self, now_ns):
        self._last_probe_ns = now_ns

    def idle_sleep_ns(self):
        if not self.cpu_yield:
            return 0
        history = self.engine.io_history
        if history.outstanding_count == 0:
            return self.yield_ns
        # Nothing ready and no completion predicted to be due yet:
        # yield the core.  Detection of a completion that lands
        # mid-sleep is delayed by at most the granule (and bounded
        # overall by the probe deadline), which costs a little latency
        # but saves the idle spin -- the Fig 13 trade.  With I/Os in
        # flight a short granule keeps that delay small relative to
        # device latency; with none in flight the full granule is safe.
        if history.predicts_completion():
            return 0
        return min(self.yield_ns, self._inflight_granule_ns)

    def idle_repeats(self, step_ns, probed):
        if probed:
            return 0
        history = self.engine.io_history
        if history.outstanding_count == 0:
            return sys.maxsize  # should_probe is not asked, no model to ask
        # should_probe goes on declining for the reason it just did
        # until the gap reaches the next threshold, and the verdict
        # (read there or by idle_sleep_ns) stands until it flips
        now = self.engine.clock.now
        gap_ns = self.min_probe_gap_ns
        if now - self._last_probe_ns >= gap_ns:
            gap_ns = self.max_probe_gap_ns
        until_ns = history.verdict_until_ns(self._last_probe_ns + gap_ns)
        return (until_ns - now - 1) // step_ns

    def gate_cost_ns(self):
        return self.engine.costs.probe_model_ns
