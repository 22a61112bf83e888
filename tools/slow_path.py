"""``python -m repro.bench`` with the kernel's in-place paths turned off.

Every ``Engine`` built in this process gets a no-op ``on_dispatch``
subscriber, which sends every CPU burst, semaphore syscall, idle turn
and fused compute run through the event heap.  An exhibit must write
the same bytes either way::

    PYTHONPATH=src python -m repro.bench all --ops 200 --out A
    PYTHONPATH=src python -m tools.slow_path all --ops 200 --out B
    diff -r A B

Takes ``repro.bench``'s arguments unchanged.
"""

import sys

from repro.bench.cli import main
from repro.sim.engine import Engine
from repro.sim.hooks import subscribe


def _ignore(entry):
    """The subscriber: owed every event, does nothing with it."""


def force_slow_path():
    """From now on, subscribe ``_ignore`` to every new Engine's ``on_dispatch``."""
    init = Engine.__init__

    def init_forced_slow(engine, *args, **kwargs):
        init(engine, *args, **kwargs)
        subscribe(engine, "on_dispatch", _ignore)

    Engine.__init__ = init_forced_slow


if __name__ == "__main__":
    force_slow_path()
    sys.exit(main())
