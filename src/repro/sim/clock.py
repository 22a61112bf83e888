"""Virtual time.

The whole reproduction runs on simulated time so that every performance
quantity the paper reports (latency, throughput, CPU cores consumed,
context switches) is an exact accounted number rather than a wall-clock
measurement distorted by the Python interpreter.

Time is an integer count of **nanoseconds**.  Integers keep event
ordering exact and reproducible; helpers below convert to and from the
microsecond units the paper uses in its figures.
"""

NS_PER_US = 1_000
NS_PER_SEC = 1_000_000_000


def usec(value):
    """Convert microseconds (int or float) to integer nanoseconds."""
    return int(round(value * NS_PER_US))


def to_usec(ns):
    """Convert integer nanoseconds to float microseconds."""
    return ns / NS_PER_US


class Clock:
    """Monotonic virtual clock owned by the simulation engine.

    Only ``repro.sim`` advances the clock; everyone else reads
    :attr:`now`, the current virtual time in nanoseconds (a plain
    attribute: every poll, probe decision and submission reads it).
    """

    __slots__ = ("now",)

    def __init__(self, start_ns=0):
        self.now = int(start_ns)

    @property
    def now_usec(self):
        """Current virtual time in float microseconds."""
        return self.now / NS_PER_US

    def advance_to(self, t_ns):
        """Move the clock forward to ``t_ns``.

        Raises ``ValueError`` on attempts to move backwards, which would
        indicate a corrupted event queue.
        """
        if t_ns < self.now:
            raise ValueError(
                "clock moving backwards: %d -> %d" % (self.now, t_ns)
            )
        self.now = t_ns

    def __repr__(self):
        return "Clock(now=%dns)" % self.now
