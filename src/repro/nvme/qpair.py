"""Queue pairs: one submission ring plus one completion ring.

Applications allocate queue pairs through the driver; the paper's
dedicated baseline gives every working thread its own pair, while
PA-Tree drives a single pair from its working thread.
"""

from repro.nvme.queue import Ring


class QueuePair:
    """A submission/completion queue pair owned by one application actor."""

    __slots__ = (
        "qid",
        "sq",
        "cq",
        "outstanding",
        "submitted",
        "completed",
        "vector_submissions",
        "vector_commands",
    )

    def __init__(self, qid, sq_size=1024, cq_size=1024):
        self.qid = qid
        self.sq = Ring(sq_size, name="sq-%d" % qid)
        self.cq = Ring(cq_size, name="cq-%d" % qid)
        self.outstanding = 0
        self.submitted = 0
        self.completed = 0
        # vectored (single-doorbell) submission accounting
        self.vector_submissions = 0
        self.vector_commands = 0

    def register_metrics(self, registry, labels=None):
        """Expose queue-pair occupancy through a metric registry."""
        registry.gauge(
            "qpair_outstanding_ops", labels,
            fn=lambda: self.outstanding,
            help="commands submitted on this pair and not yet complete",
        )
        registry.counter(
            "qpair_submitted_total", labels,
            fn=lambda: self.submitted,
            help="commands pushed onto the submission ring",
        )
        registry.counter(
            "qpair_completed_total", labels,
            fn=lambda: self.completed,
            help="completions posted to the completion ring",
        )
        registry.counter(
            "qpair_vector_submissions_total", labels,
            fn=lambda: self.vector_submissions,
            help="vectored (single-doorbell) submit calls",
        )
        registry.counter(
            "qpair_vector_commands_total", labels,
            fn=lambda: self.vector_commands,
            help="commands carried by vectored submit calls",
        )
        registry.gauge(
            "qpair_sq_occupancy_ratio", labels,
            fn=lambda: len(self.sq) / self.sq.capacity,
            help="submission ring occupancy",
        )
        registry.gauge(
            "qpair_cq_occupancy_ratio", labels,
            fn=lambda: len(self.cq) / self.cq.capacity,
            help="completion ring occupancy",
        )
        return registry

    @property
    def has_visible_completions(self):
        return not self.cq.is_empty

    def __repr__(self):
        return "QueuePair(qid=%d, sq=%d, cq=%d, outstanding=%d)" % (
            self.qid,
            len(self.sq),
            len(self.cq),
            self.outstanding,
        )
