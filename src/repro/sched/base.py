"""Scheduling policy interface.

A policy owns the ready set ``R(C)`` and decides, each iteration of
the working thread's main loop: which ready operation to process next,
whether to probe the NVMe completion queue now, and whether the thread
may yield its core when there is nothing to do.  The engine charges
the pick and the policy's gate (``gate_cost_ns``) to the
``scheduling`` category so Fig 9 can show scheduling overhead
explicitly.
"""

from repro.sched.priority import FifoReadyQueue


class SchedulingPolicy:
    """Base policy; concrete policies override the decision points."""

    name = "base"

    def __init__(self):
        self.engine = None
        #: the ready set: a container whose truthiness the main loop
        #: tests as ``ready_count() > 0``
        self.ready = FifoReadyQueue()

    def bind(self, engine):
        """Called once by the PA engine before the run starts."""
        self.engine = engine

    # ready set --------------------------------------------------------

    def on_ready(self, op):
        self.ready.push(op)

    def pick(self):
        return self.ready.pop()

    def ready_count(self):
        return len(self.ready)

    # observability ------------------------------------------------------

    def register_metrics(self, registry, labels=None):
        """Expose the ready-set size; policies may add their own."""
        registry.gauge(
            "sched_ready_ops", labels,
            fn=self.ready_count,
            help="operations in the policy's ready set",
        )
        return registry

    # probe gating ------------------------------------------------------

    def should_probe(self):
        """Probe the completion queue in this loop iteration?"""
        raise NotImplementedError

    def note_probe(self, now_ns):
        """Engine reports every probe it performed."""

    # idling -------------------------------------------------------------

    def idle_sleep_ns(self):
        """When nothing is ready: >0 = yield the CPU for that long,
        0 = busy-spin (the engine charges the spin to ``scheduling``)."""
        return 0

    def idle_repeats(self, step_ns, probed):
        """How many of the coming turns would be the last one over again.

        Asked at the end of a main-loop turn that found nothing to admit
        and nothing ready and did one of three things: charged the gate
        and was told not to probe; probed at no gate cost and found the
        queue empty (``probed``); or, with no I/O outstanding, spun.
        The coming turns would each run ``step_ns`` later than the one
        before.  Answering ``n`` promises that ``gate_cost_ns``,
        ``should_probe`` and ``idle_sleep_ns`` say in the next ``n``
        turns what they said in this one, as long as no I/O is
        submitted or completes -- which the worker sees to before it
        takes the ``n`` turns as one step, reporting a run of empty
        probes by one ``note_probe`` at the last of them.  0 promises
        nothing.
        """
        return 0

    # CPU cost hook -------------------------------------------------------
    # A constant of the run: the main loop reads it once, when the
    # working thread starts, and charges it every turn that asks
    # ``should_probe``.

    def gate_cost_ns(self):
        return 0
