"""Two-clock performance benchmark (see README.md in this directory).

``run.py`` is the entry point named in the root ``BENCHMARK.json``; it
spawns ``child.py`` once per measurement so every repeat pays a fresh
interpreter, a fresh ``import repro`` and a fresh set-up.  The harness
drives the system through public entry points only and reads public
counters, so every layer is measured from outside.
"""
