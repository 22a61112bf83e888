"""Observer hook slots: one way in, one way out.

An observer slot (``Engine.on_dispatch``, ``NvmeDevice.on_complete``, ...;
the registry is ``tools/analysis/layers.toml [hooks] observers``) is an
attribute holding a tuple of callables, ``()`` when nobody listens.  The
owner consults it as ``if self.slot:`` plus a loop, so an unobserved run
pays one attribute load and one falsy check, and observers fire in
subscription order.  What a subscriber is called with is the owner's
business: ``Engine.on_dispatch`` passes the heap entry about to run
(``[time, seq, None, args]``, see ``repro.sim.events``), which today's
subscribers only count.  These two functions are the only code that rebinds
a slot (patlint PA530), which is what lets any number of observers
attach and detach in any order without seeing each other.
"""


def subscribe(obj, slot, fn):
    """Add ``fn`` to ``obj.<slot>``; a callable already there stays once."""
    observers = getattr(obj, slot)
    if fn not in observers:
        setattr(obj, slot, observers + (fn,))


def unsubscribe(obj, slot, fn):
    """Take ``fn`` out of ``obj.<slot>``; a no-op when it is not there."""
    setattr(
        obj, slot, tuple(seen for seen in getattr(obj, slot) if seen != fn)
    )
