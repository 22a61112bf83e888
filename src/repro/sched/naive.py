"""Naive scheduling (paper Algorithm 1).

Process ready operations in admission order and probe the NVMe
interface on every main-loop iteration.  No completion estimation, no
prioritization, no CPU yielding: when idle the thread spins in the
main loop, probing as it goes.
"""

import sys

from repro.sched.base import SchedulingPolicy


class NaiveScheduling(SchedulingPolicy):
    """Algorithm 1: FIFO processing, probe every iteration, never yield."""

    name = "naive"

    def should_probe(self):
        return True

    def idle_sleep_ns(self):
        return 0

    def idle_repeats(self, step_ns, probed):
        return sys.maxsize  # no answer above depends on anything
