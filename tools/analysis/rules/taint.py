"""PA510-PA512: wall-clock taint (graph rules).

The simulation's determinism guarantee means wall-clock and raw-I/O
values must never reach virtual-time state.  ``repro.backend.file`` is
the one deliberate exception — the FileBackend measures real syscalls
and quantizes the durations into virtual service times — so the taint
analysis treats the modules blessed in ``layers.toml`` as sanitizers
and everything else as forbidden territory:

* **PA510** — a direct call, anywhere in a module that is not
  blessed, to one of the sources ``layers.toml [wall_clock].sources``
  lists: host clocks (``time.perf_counter``, ``datetime.now``...),
  ``time.sleep``, and raw I/O (``os.pread`` and friends);
* **PA511** — interprocedural flow: a virtual-time sink (``engine.
  schedule``, ``Sleep``, ``Cpu``, ``ChargeEff``) fed by a value that
  traces back to a source through the call graph with no blessed
  module in between;
* **PA512** — blessing drift: ``wall_clock_variant = True`` declared
  in a module that ``layers.toml`` does not bless, or a blessed module
  that no longer declares it.
"""

import ast

from ..dataflow import SOURCE_ATOM, _resolve_atom, taint_fixpoint
from ..framework import Finding, GraphRule


class WallClockSourceRule(GraphRule):
    """PA510: source call outside the blessed sanitizer modules."""

    code = "PA510"
    name = "wall-clock-source"
    summary = "wall-clock/raw-I/O source call outside a blessed module"
    scopes = ("src",)

    def run(self, graph, contexts, config):
        module_of = {entry.path: name for name, entry in graph.modules.items()}
        for ctx in contexts:
            module = module_of.get(ctx.path)
            if ctx.scope not in self.scopes or (
                module is not None and config.is_blessed(module)
            ):
                continue
            # every call in the file: nested and decorated defs, default
            # arguments and import-time statements included
            for node in ast.walk(ctx.tree):
                if not isinstance(node, ast.Call):
                    continue
                dotted = ctx.resolve(node.func)
                if dotted not in config.taint_sources:
                    continue
                yield Finding(
                    ctx.path,
                    node.lineno,
                    node.col_offset,
                    self.code,
                    "call to %s in %s: wall-clock/raw-I/O sources are "
                    "legal only in the blessed wall_clock_variant "
                    "modules (%s); route this through repro.backend.file "
                    "or take time from the virtual clock"
                    % (
                        dotted,
                        module or ctx.path,
                        ", ".join(config.blessed_modules),
                    ),
                )


class WallClockFlowRule(GraphRule):
    """PA511: tainted value reaches a virtual-time sink."""

    code = "PA511"
    name = "wall-clock-flow"
    summary = "wall-clock taint flows into a virtual-time sink"
    scopes = ("src",)

    def run(self, graph, contexts, config):
        tainted, functions_by_key = taint_fixpoint(graph, config)
        modules = set(graph.modules)
        for module in sorted(graph.modules):
            if config.is_blessed(module):
                continue
            entry = graph.modules[module]
            for qualname in sorted(entry.functions):
                summary = entry.functions[qualname]
                for site in summary.sink_sites:
                    culprit = None
                    for atom in site["atoms"]:
                        if atom == SOURCE_ATOM:
                            culprit = "a direct wall-clock source call"
                            break
                        resolved = _resolve_atom(
                            atom, functions_by_key, modules
                        )
                        if resolved is not None and resolved in tainted:
                            culprit = "%s (wall-clock tainted)" % resolved
                            break
                    if culprit is None:
                        continue
                    yield Finding(
                        entry.path,
                        site["lineno"],
                        site["col"],
                        self.code,
                        "virtual-time sink %s(...) in %s.%s is fed by %s; "
                        "only values sanitized by a blessed "
                        "wall_clock_variant module may enter virtual time"
                        % (site["sink"], module, qualname, culprit),
                    )


class WallClockBlessingRule(GraphRule):
    """PA512: wall_clock_variant declaration vs layers.toml drift."""

    code = "PA512"
    name = "wall-clock-blessing"
    summary = "wall_clock_variant declaration out of sync with layers.toml"
    scopes = ("src",)

    def run(self, graph, contexts, config):
        for module in sorted(graph.modules):
            entry = graph.modules[module]
            declared = entry.wall_clock_decl is not None
            blessed = config.is_blessed(module)
            if declared and not blessed:
                yield Finding(
                    entry.path,
                    entry.wall_clock_decl,
                    0,
                    self.code,
                    "%s declares wall_clock_variant = True but is not "
                    "blessed in layers.toml [wall_clock]; add it there so "
                    "the sanitizer set stays centrally reviewed" % module,
                )
            elif blessed and not declared:
                yield Finding(
                    entry.path,
                    1,
                    0,
                    self.code,
                    "%s is blessed in layers.toml [wall_clock] but declares "
                    "no wall_clock_variant = True; either declare it or "
                    "drop the blessing" % module,
                )

