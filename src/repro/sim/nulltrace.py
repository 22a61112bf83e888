"""The disabled tracer, at the bottom of the layer stack.

Engine-layer components (``repro.core``, ``repro.palsm``) hold a tracer
by default so the enabled check is one attribute read (``if
self.tracer.enabled:``) and the disabled path never allocates or
branches further.  The no-op implementation lives here in the
foundation layer — not in ``repro.obs`` — so holding the default does
not couple the engine upward to the observability package (patlint
PA501); ``repro.obs.tracer`` re-exports both names for its callers.
"""


class NullTracer:
    """Disabled tracer: every call is a no-op."""

    enabled = False
    events = ()
    dropped = 0

    def begin(self, track, name, cat="", args=None):
        return None

    def end(self, span, args=None):
        pass

    def instant(self, track, name, cat="", args=None):
        pass

    def async_begin(self, cat, aid, name, args=None):
        pass

    def async_end(self, cat, aid, name, args=None):
        pass

    def counter(self, track, name, values):
        pass


NULL_TRACER = NullTracer()
