"""Interprocedural wall-clock taint: summaries and fixpoint.

Phase 1 (:func:`summarize_module`) reduces every function to a small
summary:

* ``return_atoms`` — what the function's return value is built from:
  the literal atom ``"SOURCE"`` and/or call-target atoms ("this
  function returns whatever ``repro.x::helper`` returns");
* ``sink_sites`` — virtual-time sink calls (``engine.schedule(...)``,
  ``Sleep(...)``, ...) with the atoms feeding their arguments.

Atoms flow through intra-function assignments (a local assigned from a
source call taints every expression that reads it).  Phase 2
(:func:`taint_fixpoint`) resolves call atoms across the project call
graph until the tainted-function set stops growing; modules blessed in
``layers.toml`` sanitize — their functions are never considered tainted
from the outside, which is exactly the FileBackend contract (measured
syscall times are quantized there before entering virtual time).

The analysis is flow-insensitive inside a function and ignores
containers and attributes on purpose: it is a linter, tuned so the
seeded fixtures fire and the real tree stays quiet.
"""

import ast

SOURCE_ATOM = "SOURCE"


def _call_atom(node, ctx, module, class_name, local_funcs):
    """Best-effort atom for a call's target, or None."""
    func = node.func
    dotted = ctx.resolve(func)
    if dotted is not None:
        # module-local plain function call
        if isinstance(func, ast.Name) and func.id in local_funcs:
            return "%s::%s" % (module, func.id)
        return dotted
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id in ("self", "cls")
        and class_name
    ):
        return "%s::%s.%s" % (module, class_name, func.attr)
    return None


class FunctionSummary:
    """Taint facts about one function."""

    __slots__ = ("qualname", "lineno", "return_atoms", "sink_sites")

    def __init__(self, qualname, lineno, return_atoms, sink_sites):
        self.qualname = qualname
        self.lineno = lineno
        self.return_atoms = return_atoms
        self.sink_sites = sink_sites


def _is_sink(node, ctx, config):
    """(sink_name, arg_nodes) for a virtual-time sink call, else None."""
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr in config.sink_methods:
        return func.attr, list(node.args) + [kw.value for kw in node.keywords]
    name = None
    if isinstance(func, ast.Name):
        name = func.id
    elif isinstance(func, ast.Attribute):
        name = func.attr
    if name in config.sink_constructors:
        return name, list(node.args) + [kw.value for kw in node.keywords]
    return None


def _summarize_function(funcdef, ctx, module, class_name, local_funcs, config):
    qualname = (
        "%s.%s" % (class_name, funcdef.name) if class_name else funcdef.name
    )
    sink_sites = []
    tainted_locals = set()
    assignments = []  # (target_names, value expr)
    returns = []

    def own_nodes():
        """The function's own statements, not nested defs' bodies."""
        stack = list(funcdef.body)
        while stack:
            stmt = stack.pop()
            yield stmt
            for child in ast.iter_child_nodes(stmt):
                if isinstance(
                    child,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                ):
                    continue
                stack.append(child)

    for node in own_nodes():
        if isinstance(node, ast.Call):
            sink = _is_sink(node, ctx, config)
            if sink is not None:
                sink_sites.append(
                    {
                        "lineno": node.lineno,
                        "col": node.col_offset,
                        "sink": sink[0],
                        "args": sink[1],  # resolved to atoms below
                    }
                )
        elif isinstance(node, ast.Assign):
            names = [
                target.id
                for target in node.targets
                if isinstance(target, ast.Name)
            ]
            if names and node.value is not None:
                assignments.append((names, node.value))
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            if isinstance(node.target, ast.Name) and node.value is not None:
                assignments.append(([node.target.id], node.value))
        elif isinstance(node, ast.Return) and node.value is not None:
            returns.append(node.value)

    def atoms_of(expr, locals_tainted):
        """Atoms an expression's value is built from."""
        atoms = set()
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Call):
                dotted = ctx.resolve(sub.func)
                if dotted in config.taint_sources:
                    atoms.add(SOURCE_ATOM)
                    continue
                atom = _call_atom(sub, ctx, module, class_name, local_funcs)
                if atom is not None:
                    atoms.add(atom)
            elif isinstance(sub, ast.Name) and sub.id in locals_tainted:
                atoms.add(SOURCE_ATOM)
        return atoms

    # intra-function local taint, to a (cheap) fixpoint: a local assigned
    # from a source expression taints reads of that local
    changed = True
    while changed:
        changed = False
        for names, value in assignments:
            if any(name in tainted_locals for name in names):
                continue
            if SOURCE_ATOM in atoms_of(value, tainted_locals):
                tainted_locals.update(names)
                changed = True

    return_atoms = set()
    for value in returns:
        return_atoms.update(atoms_of(value, tainted_locals))

    resolved_sinks = []
    for site in sink_sites:
        atoms = set()
        for arg in site["args"]:
            atoms.update(atoms_of(arg, tainted_locals))
        if atoms:
            resolved_sinks.append(
                {
                    "lineno": site["lineno"],
                    "col": site["col"],
                    "sink": site["sink"],
                    "atoms": sorted(atoms),
                }
            )

    return FunctionSummary(
        qualname, funcdef.lineno, sorted(return_atoms), resolved_sinks
    )


def summarize_module(ctx, module, config):
    """Summaries for every function in one parsed module."""
    local_funcs = {
        node.name
        for node in ctx.tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    summaries = {}

    def visit(body, class_name):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                summary = _summarize_function(
                    node, ctx, module, class_name, local_funcs, config
                )
                summaries[summary.qualname] = summary
            elif isinstance(node, ast.ClassDef):
                visit(node.body, node.name)

    visit(ctx.tree.body, None)
    return summaries


# ---------------------------------------------------------------------------
# phase 2: cross-module fixpoint
# ---------------------------------------------------------------------------


def _resolve_atom(atom, functions_by_key, modules):
    """Map an atom to a function key (``module::qualname``), if any."""
    if atom == SOURCE_ATOM or atom is None:
        return None
    if "::" in atom:
        return atom if atom in functions_by_key else None
    # dotted name: split into (module, symbol) against the known set
    parts = atom.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        module = ".".join(parts[:cut])
        if module in modules:
            key = "%s::%s" % (module, ".".join(parts[cut:]))
            if key in functions_by_key:
                return key
            return None
    return None


def taint_fixpoint(graph, config):
    """Set of function keys whose return value carries wall-clock taint.

    Functions in blessed modules are sanitizers: they never enter the
    tainted set, so taint cannot escape them.
    """
    functions_by_key = {}
    for module, entry in graph.modules.items():
        for qualname, summary in entry.functions.items():
            functions_by_key["%s::%s" % (module, qualname)] = summary
    modules = set(graph.modules)
    tainted = set()
    changed = True
    while changed:
        changed = False
        for key, summary in functions_by_key.items():
            if key in tainted:
                continue
            module = key.split("::", 1)[0]
            if config.is_blessed(module):
                continue
            hit = False
            for atom in summary.return_atoms:
                if atom == SOURCE_ATOM:
                    hit = True
                    break
                resolved = _resolve_atom(atom, functions_by_key, modules)
                if resolved is not None and resolved in tainted:
                    hit = True
                    break
            if hit:
                tainted.add(key)
                changed = True
    return tainted, functions_by_key
