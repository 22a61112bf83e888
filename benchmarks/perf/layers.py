"""Host self-time by layer: cProfile rows bucketed through layers.toml.

The layer table is read from ``tools/analysis/layers.toml`` — the file
the architecture lint enforces — so the profile's layer map and the
lint's cannot disagree.  A layer here is a ``repro.<module>`` entry of
that file; matching is longest-dotted-prefix, exactly as the lint does.
"""

import os
import tomllib

#: the modules whose self-time is reported as ``host_self_s.<m>`` /
#: ``host_calls_per_op.<m>``; other entries of layers.toml (errors, the
#: root package, bench, fuzz) do no work inside a timed phase and are
#: summed into ``unreported_repro_s`` so drift still shows
REPORTED = (
    "sim", "simos", "nvme", "backend", "faults", "storage", "buffer",
    "core", "sched", "baselines", "palsm", "workloads", "obs", "shard",
    "api",
)
STDLIB = "stdlib_builtins"
HARNESS = "harness"
BUCKETS = REPORTED + (STDLIB, HARNESS)

#: boundary functions whose call count and cumulative time are written
#: to the --out file as spans: name -> (path suffix, function name)
BOUNDARIES = {
    "Engine.run": ("repro/sim/engine.py", "run"),
    "Engine.schedule": ("repro/sim/engine.py", "schedule"),
    "IoBackend.io_submit": ("repro/backend/base.py", "io_submit"),
    "IoBackend.io_submit_many": ("repro/backend/base.py", "io_submit_many"),
    "IoBackend.read": ("repro/backend/base.py", "read"),
    "IoBackend.write": ("repro/backend/base.py", "write"),
    "IoBackend.write_many": ("repro/backend/base.py", "write_many"),
    "IoBackend.probe": ("repro/backend/base.py", "probe"),
    "PaTreeEngine.run_to_completion": (
        "repro/core/engine.py", "run_to_completion"
    ),
    "ShardedPaTree.run_operations": (
        "repro/shard/sharded.py", "run_operations"
    ),
    "BaselineRunner.run_to_completion": (
        "repro/baselines/runner.py", "run_to_completion"
    ),
}


def load_layer_modules(toml_path):
    """Every dotted module listed under ``[[layers]]``."""
    with open(toml_path, "rb") as handle:
        config = tomllib.load(handle)
    return [
        module for layer in config["layers"] for module in layer["modules"]
    ]


def module_of(filename, src_dir):
    """Dotted ``repro...`` module of a source file, else None."""
    prefix = os.path.join(src_dir, "")
    if not filename.startswith(prefix) or not filename.endswith(".py"):
        return None
    parts = filename[len(prefix):-3].split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def layer_of(module, layer_modules):
    """Longest-dotted-prefix entry of layers.toml matching ``module``."""
    best = None
    for entry in layer_modules:
        if module == entry or module.startswith(entry + "."):
            if best is None or len(entry) > len(best):
                best = entry
    return best


def bucket_profile(rows, layer_modules, src_dir, harness_dir):
    """Sum cProfile rows into buckets.

    ``rows`` maps ``(filename, lineno, function)`` to
    ``(primitive calls, calls, self seconds, cumulative seconds)``.
    """
    self_s = dict.fromkeys(BUCKETS, 0.0)
    calls = dict.fromkeys(BUCKETS, 0)
    unreported_s = 0.0  # in layers.toml, but not a reported module
    unmapped_s = 0.0  # repro.* file that layers.toml does not list
    spans = {name: {"ncalls": 0, "cumtime_s": 0.0} for name in BOUNDARIES}
    harness_prefix = os.path.join(harness_dir, "")
    for (filename, _lineno, function), (_cc, ncalls, tottime, cumtime) in rows.items():
        module = module_of(filename, src_dir)
        layer = layer_of(module, layer_modules) if module else None
        if module is None:
            bucket = HARNESS if filename.startswith(harness_prefix) else STDLIB
        elif layer is None:
            bucket = None
            unmapped_s += tottime
        else:
            bucket = layer.rpartition(".")[2]
            if bucket not in self_s:
                bucket = None
                unreported_s += tottime
        if bucket is not None:
            self_s[bucket] += tottime
            calls[bucket] += ncalls
        for name, (suffix, wanted) in BOUNDARIES.items():
            if function == wanted and filename.endswith(suffix):
                spans[name]["ncalls"] += ncalls
                spans[name]["cumtime_s"] += cumtime
    return {
        "self_s": self_s,
        "calls": calls,
        "unreported_repro_s": unreported_s,
        "unmapped_repro_s": unmapped_s,
        "spans": spans,
    }
