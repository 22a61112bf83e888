"""``python -m repro.bench`` with the kernel's in-place paths turned off.

Every ``Engine`` built in this process gets a no-op ``on_dispatch``
subscriber, which sends every CPU burst, semaphore syscall and idle
turn through the event heap (with it bound, ``Engine.limit_ns`` never
leaves -1).  An exhibit must write the same bytes either way::

    PYTHONPATH=src python -m repro.bench all --ops 200 --out A
    PYTHONPATH=src python -m tools.slow_path all --ops 200 --out B
    diff -r A B

Takes ``repro.bench``'s arguments unchanged.  Under ``all`` each exhibit
runs in a fresh interpreter of its own (one per CPU at a time) and the
outputs print in ``all``'s order, so the ``diff -r`` also proves that no
exhibit leans on a module cache another exhibit filled: ``_CACHE`` in
``fig7_fig8`` / ``table1_table2_fig9``, ``probe_model._MODEL_CACHE``.
"""

import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

from repro.bench import cli
from repro.sim.engine import Engine
from repro.sim.hooks import subscribe

#: a child's first argument: ``_ONLY name all ...`` is ``all`` cut down
#: to the one exhibit, under ``all``'s rules (fig3 runs at its own size)
_ONLY = "--only"


def _ignore(entry):
    """The subscriber: owed every event, does nothing with it."""


def force_slow_path():
    """From now on, subscribe ``_ignore`` to every new Engine's ``on_dispatch``."""
    init = Engine.__init__

    def init_forced_slow(engine, *args, **kwargs):
        init(engine, *args, **kwargs)
        subscribe(engine, "on_dispatch", _ignore)

    Engine.__init__ = init_forced_slow


def run_each(argv):
    """``all`` with every exhibit in a child interpreter; the first
    failing child's exit status, else 0."""

    def child(name):
        command = [sys.executable, "-m", "tools.slow_path", _ONLY, name, *argv]
        return subprocess.run(command, stdout=subprocess.PIPE, text=True)

    status = 0
    with ThreadPoolExecutor(os.cpu_count() or 1) as pool:
        for run in pool.map(child, sorted(cli._EXHIBITS)):
            sys.stdout.write(run.stdout)
            status = status or run.returncode
    return status


def main(argv):
    if argv[:1] == [_ONLY]:
        name, argv = argv[1], argv[2:]
        cli._EXHIBITS = {name: cli._EXHIBITS[name]}
    elif argv[:1] == ["all"]:
        return run_each(argv)
    force_slow_path()
    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
