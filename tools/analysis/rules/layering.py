"""PA501-PA503: whole-program layering (graph rules).

The layer map lives in ``tools/analysis/layers.toml``.  Three rule
families enforce it over the phase-1 project graph:

* **PA501** — an import that crosses layers in the wrong direction
  (``repro.core`` importing ``repro.obs``), or a ``repro.*`` module
  that is missing from the layer map entirely (drift: new packages
  must be placed in a layer before they ship);
* **PA502** — an import that reaches the NVMe model's internals from
  outside the backend boundary (*any* coupling: device/driver
  construction, profiles, driver knobs, qpair internals);
* **PA503** — a module-level import cycle (function-level imports are
  the sanctioned cycle-breaking idiom and are exempt).
"""

import os

from ..framework import Finding, GraphRule


def _edge_finding(entry, edge, code, message):
    return Finding(entry.path, edge.lineno, edge.col, code, message)


class LayeringRule(GraphRule):
    """PA501: upward import across the declared layer order."""

    code = "PA501"
    name = "layer-violation"
    summary = "import crosses the layer map in the wrong direction"
    scopes = ("src",)

    def run(self, graph, contexts, config):
        reported_unmapped = set()
        for module in sorted(graph.modules):
            entry = graph.modules[module]
            from_layer = config.layer_of(module)
            if from_layer is None:
                if module not in reported_unmapped:
                    reported_unmapped.add(module)
                    yield Finding(
                        entry.path,
                        1,
                        0,
                        self.code,
                        "module %s is not assigned to any layer in %s; add "
                        "it to the layer map so its imports are checked"
                        % (module, _config_name(config)),
                    )
                continue
            for edge in entry.imports:
                resolved = graph.resolve_import(edge)
                if resolved is None or resolved == module:
                    continue
                to_layer = config.layer_of(resolved)
                if to_layer is None:
                    if resolved.startswith("repro") and (
                        resolved not in reported_unmapped
                    ):
                        reported_unmapped.add(resolved)
                        yield _edge_finding(
                            entry,
                            edge,
                            self.code,
                            "import of %s, which is not assigned to any "
                            "layer in %s" % (resolved, _config_name(config)),
                        )
                    continue
                if (
                    config.layer_index[to_layer]
                    > config.layer_index[from_layer]
                ):
                    yield _edge_finding(
                        entry,
                        edge,
                        self.code,
                        "%s (layer '%s') may not import %s (layer '%s'): "
                        "the layer map orders '%s' below '%s'"
                        % (
                            module,
                            from_layer,
                            resolved,
                            to_layer,
                            from_layer,
                            to_layer,
                        ),
                    )


class BoundaryImportRule(GraphRule):
    """PA502: NVMe internals imported from outside the backend."""

    code = "PA502"
    name = "boundary-import"
    summary = "nvme device/driver internals imported outside repro.backend"
    scopes = ("src",)

    def run(self, graph, contexts, config):
        for module in sorted(graph.modules):
            entry = graph.modules[module]
            for edge in entry.imports:
                resolved = graph.resolve_import(edge) or edge.target
                if not config.boundary_violation(module, resolved):
                    continue
                yield _edge_finding(
                    entry,
                    edge,
                    self.code,
                    "%s imports %s: only %s may touch %s internals "
                    "(the %s modules are the public contract); import "
                    "the re-export from repro.backend instead"
                    % (
                        module,
                        resolved,
                        " / ".join(config.boundary_allowed),
                        config.boundary_package,
                        " / ".join(config.boundary_public),
                    ),
                )


class ImportCycleRule(GraphRule):
    """PA503: module-level import cycles."""

    code = "PA503"
    name = "import-cycle"
    summary = "module-level import cycle between project modules"
    scopes = ("src",)

    def run(self, graph, contexts, config):
        adjacency = {}
        edge_at = {}
        for module, entry in graph.modules.items():
            adjacency[module] = set()
            for edge in entry.imports:
                if not edge.module_level:
                    continue
                resolved = graph.resolve_import(edge)
                if resolved is None or resolved == module:
                    continue
                # an edge onto an unanalyzed submodule of an analyzed
                # package collapses onto the package for cycle purposes
                if resolved not in graph.modules:
                    parts = resolved.split(".")
                    resolved = next(
                        (
                            ".".join(parts[:cut])
                            for cut in range(len(parts) - 1, 0, -1)
                            if ".".join(parts[:cut]) in graph.modules
                        ),
                        None,
                    )
                    if resolved is None or resolved == module:
                        continue
                adjacency[module].add(resolved)
                edge_at.setdefault((module, resolved), edge)
        for cycle in _cycles(adjacency):
            anchor = min(cycle)
            index = cycle.index(anchor)
            ordered = cycle[index:] + cycle[:index]
            entry = graph.modules[anchor]
            edge = edge_at.get((ordered[0], ordered[1 % len(ordered)]))
            yield Finding(
                entry.path,
                edge.lineno if edge else 1,
                edge.col if edge else 0,
                self.code,
                "module-level import cycle: %s; break it with a "
                "function-level import or by moving the shared piece "
                "into a lower layer" % " -> ".join(ordered + [ordered[0]]),
            )


def _cycles(adjacency):
    """Strongly connected components of size > 1, sorted and deduped.

    Iterative Tarjan; each SCC is returned as a list ordered along one
    cycle through it (approximate: discovery order).
    """
    index_counter = [0]
    stack = []
    lowlink = {}
    index = {}
    on_stack = set()
    sccs = []

    for start in sorted(adjacency):
        if start in index:
            continue
        work = [(start, iter(sorted(adjacency[start])))]
        index[start] = lowlink[start] = index_counter[0]
        index_counter[0] += 1
        stack.append(start)
        on_stack.add(start)
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in adjacency:
                    continue
                if succ not in index:
                    index[succ] = lowlink[succ] = index_counter[0]
                    index_counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(adjacency[succ]))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1:
                    sccs.append(list(reversed(component)))
                elif node in adjacency.get(node, ()):
                    sccs.append([node])
    return sccs


def _config_name(config):
    return os.path.basename(config.path)
