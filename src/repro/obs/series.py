"""The periodic virtual-time sampler.

The :class:`TimeSeriesSampler` rides the simulation engine itself: it
schedules a callback every ``interval_ns`` of virtual time and appends
one row its owner reads (a trace session's named probes, a metrics
session's registry scalars).  Because a row only *reads* state, a
sampled run reaches the same virtual-time results as an unsampled one
— the sampler adds engine events but charges no CPU and mutates
nothing.
"""


class TimeSeriesSampler:
    """Appends ``(now, read())`` every ``interval_ns`` of virtual time.

    What a row holds is the owner's business: a trace session reads its
    probes, a metrics session its registry's scalars.  At most
    ``max_samples`` rows are kept; the sampler stops once it has them.
    """

    def __init__(self, engine, interval_ns, read, max_samples=100_000):
        self.engine = engine
        self.interval_ns = int(interval_ns)
        if self.interval_ns <= 0:
            raise ValueError("sampler interval must be positive")
        self.read = read
        self.max_samples = max_samples
        self.samples = []  # (time_ns, read())
        self._event = None
        self._running = False

    def start(self):
        if self._running:
            return
        self._running = True
        self._event = self.engine.schedule(self.interval_ns, self._tick)

    def stop(self):
        self._running = False
        if self._event is not None:
            self.engine.cancel(self._event)
            self._event = None

    def _tick(self):
        self._event = None  # it has just fired: nothing left to cancel
        if not self._running:
            return
        if len(self.samples) < self.max_samples:
            self.samples.append((self.engine.now, self.read()))
        if len(self.samples) < self.max_samples:
            self._event = self.engine.schedule(self.interval_ns, self._tick)
        else:
            self._running = False
