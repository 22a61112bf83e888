"""The tracer: spans, instants, counters and async op lifecycles.

Every record carries the **virtual** clock — never wall time — and IDs
are small integers assigned in record order, so two runs of the same
deterministic simulation produce byte-identical traces.

Event model (mirrors the Chrome ``trace_event`` phases the exporter
emits):

* **slice** — a closed ``[start, end]`` interval on a named track
  (``ph: "X"``).  Tracks model the things that execute sequentially in
  virtual time: the working thread, the poller, a CPU core.
* **instant** — a point event on a track (``ph: "i"``).
* **async span** — a ``begin``/``end`` pair correlated by ``(cat, id)``
  rather than by track nesting (``ph: "b"/"n"/"e"``).  Operations and
  I/O commands overlap freely, so their lifecycles are async spans keyed
  by operation sequence number / command trace id.
* **counter** — a sampled dict of numeric values (``ph: "C"``).

The tracer only appends tuples to a list; all formatting lives in
:mod:`repro.obs.export`.  ``max_events`` bounds memory: past the cap new
events are dropped and counted in :attr:`Tracer.dropped`.
"""

# NullTracer lives in the foundation layer so engine components can
# hold the disabled default without importing repro.obs (PA501); it
# is re-exported here because observability callers look for it next
# to Tracer.
from repro.sim.nulltrace import NULL_TRACER, NullTracer

__all__ = ["NULL_TRACER", "NullTracer", "Span", "Tracer"]

# Internal record kinds (first element of each event tuple).
EV_SLICE = "slice"
EV_INSTANT = "instant"
EV_ASYNC_BEGIN = "async_begin"
EV_ASYNC_INSTANT = "async_instant"
EV_ASYNC_END = "async_end"
EV_COUNTER = "counter"


class Span:
    """An open slice returned by :meth:`Tracer.begin`."""

    __slots__ = ("track", "name", "cat", "start_ns", "args")

    def __init__(self, track, name, cat, start_ns, args):
        self.track = track
        self.name = name
        self.cat = cat
        self.start_ns = start_ns
        self.args = args

    def __repr__(self):
        return "Span(%s/%s @%d)" % (self.track, self.name, self.start_ns)


class Tracer:
    """Records trace events against a virtual clock."""

    enabled = True

    def __init__(self, clock, max_events=2_000_000):
        self.clock = clock
        self.max_events = max_events
        self.events = []
        self.dropped = 0
        self._tracks = {}  # name -> tid (registration order)

    # ------------------------------------------------------------------
    # tracks
    # ------------------------------------------------------------------

    def track_id(self, track):
        """Stable small-integer id for a track name."""
        tid = self._tracks.get(track)
        if tid is None:
            tid = len(self._tracks)
            self._tracks[track] = tid
        return tid

    @property
    def tracks(self):
        """Mapping of track name -> tid, in registration order."""
        return dict(self._tracks)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def _push(self, record):
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return False
        self.events.append(record)
        return True

    def begin(self, track, name, cat="", args=None):
        """Open a slice on ``track``; close it with :meth:`end`."""
        return Span(track, name, cat, self.clock.now, args)

    def end(self, span, args=None):
        """Close an open slice and record it."""
        if args:
            merged = dict(span.args) if span.args else {}
            merged.update(args)
            span.args = merged
        self._push(
            (EV_SLICE, span.track, span.name, span.cat, span.start_ns,
             self.clock.now, span.args)
        )

    def complete(self, track, name, start_ns, end_ns, cat="", args=None):
        """Record a slice retroactively from known timestamps."""
        self._push((EV_SLICE, track, name, cat, start_ns, end_ns, args))

    def instant(self, track, name, cat="", args=None):
        self._push((EV_INSTANT, track, name, cat, self.clock.now, args))

    def async_begin(self, cat, aid, name, args=None):
        self._push((EV_ASYNC_BEGIN, cat, aid, name, self.clock.now, args))

    def async_instant(self, cat, aid, name, args=None):
        self._push((EV_ASYNC_INSTANT, cat, aid, name, self.clock.now, args))

    def async_end(self, cat, aid, name, args=None):
        self._push((EV_ASYNC_END, cat, aid, name, self.clock.now, args))

    def counter(self, track, name, values):
        """Record sampled numeric ``values`` (a dict) at the current time."""
        self._push((EV_COUNTER, track, name, self.clock.now, dict(values)))
