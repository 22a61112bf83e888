"""Phase 1: the whole-program project graph.

For every analyzed file that belongs to the ``repro`` namespace this
module derives

* its dotted **module name** (from the ``src/`` layout),
* its **import edges** (absolute and relative, module- and
  function-level, with line positions for reporting),
* its **function taint summaries** (:mod:`tools.analysis.dataflow`).

Every run builds it from scratch over the parsed files; the
cross-file passes (layering, cycles, taint fixpoint) then run over it.
"""

import ast
import os

from .dataflow import summarize_module


def module_name_for(path):
    """Dotted module name for a source path, or None outside ``repro``.

    The repo layout is ``src/repro/...``; fixtures reuse it under a tmp
    root, so the rule is purely segment-based: everything after the
    last ``src`` segment (or from the first ``repro`` segment) forms
    the dotted name.
    """
    parts = [part for part in path.replace(os.sep, "/").split("/") if part]
    if not parts or not parts[-1].endswith(".py"):
        return None
    start = None
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "src":
            start = index + 1
            break
    if start is None:
        for index, part in enumerate(parts):
            if part == "repro":
                start = index
                break
    if start is None or start >= len(parts):
        return None
    segments = parts[start:]
    segments[-1] = segments[-1][:-3]
    if segments[-1] == "__init__":
        segments = segments[:-1]
    if not segments or segments[0] != "repro":
        return None
    return ".".join(segments)


class ImportEdge:
    """One import statement, resolved to a dotted target."""

    __slots__ = ("target", "symbol", "lineno", "col", "module_level")

    def __init__(self, target, symbol, lineno, col, module_level):
        self.target = target  # dotted module (best-effort)
        self.symbol = symbol  # imported symbol for from-imports, else None
        self.lineno = lineno
        self.col = col
        self.module_level = module_level


class ModuleEntry:
    """Phase-1 facts about one module."""

    __slots__ = (
        "module",
        "path",
        "imports",
        "functions",
        "wall_clock_decl",
    )

    def __init__(self, module, path, imports, functions, wall_clock_decl):
        self.module = module
        self.path = path
        self.imports = imports
        self.functions = functions  # {qualname: FunctionSummary}
        self.wall_clock_decl = wall_clock_decl  # lineno of wall_clock_variant=True


def _package_of(module, path):
    """The package a module's relative imports resolve against."""
    is_package = path.replace(os.sep, "/").endswith("/__init__.py")
    if is_package:
        return module
    return module.rsplit(".", 1)[0] if "." in module else ""


def extract_imports(ctx, module):
    """Every import in the file, resolved to absolute dotted targets."""
    package = _package_of(module, ctx.path)
    edges = []
    module_level_ids = {id(stmt) for stmt in ctx.tree.body}
    # imports nested in module-level try/if blocks still run at import
    # time; only function-bodied imports are deferred
    deferred = set()
    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for sub in ast.walk(node):
                if isinstance(sub, (ast.Import, ast.ImportFrom)) and sub is not node:
                    deferred.add(id(sub))
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                edges.append(
                    ImportEdge(
                        alias.name,
                        None,
                        node.lineno,
                        node.col_offset,
                        id(node) not in deferred,
                    )
                )
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base_parts = package.split(".") if package else []
                drop = node.level - 1
                if drop:
                    base_parts = base_parts[: len(base_parts) - drop]
                base = ".".join(base_parts)
                target = (
                    base + "." + node.module
                    if node.module and base
                    else (node.module or base)
                )
            else:
                target = node.module or ""
            if not target:
                continue
            for alias in node.names:
                edges.append(
                    ImportEdge(
                        target,
                        alias.name if alias.name != "*" else None,
                        node.lineno,
                        node.col_offset,
                        id(node) not in deferred,
                    )
                )
    return edges


def _wall_clock_decl(tree):
    """Line of a ``wall_clock_variant = True`` declaration, if any."""
    def scan(body):
        for stmt in body:
            if isinstance(stmt, ast.ClassDef):
                found = scan(stmt.body)
                if found:
                    return found
            if not isinstance(stmt, ast.Assign):
                continue
            if not (
                isinstance(stmt.value, ast.Constant)
                and stmt.value.value is True
            ):
                continue
            for target in stmt.targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id == "wall_clock_variant"
                ):
                    return stmt.lineno
        return None

    return scan(tree.body)


class ProjectGraph:
    """Phase-1 output: modules, import edges, summaries."""

    def __init__(self, modules):
        self.modules = modules  # {module: ModuleEntry}

    def resolve_import(self, edge):
        """Best dotted module the edge lands on, within the project.

        ``from repro.a import b`` imports the module ``repro.a.b`` when
        that exists, otherwise the symbol ``b`` from module ``repro.a``.
        Returns ``None`` for targets outside the analyzed module set.
        """
        if edge.symbol is not None:
            candidate = "%s.%s" % (edge.target, edge.symbol)
            if candidate in self.modules:
                return candidate
        if edge.target in self.modules:
            return edge.target
        # an unanalyzed submodule of an analyzed package still counts
        # for layering: match the longest known package prefix
        parts = edge.target.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix in self.modules:
                return edge.target
        return None


def build_project_graph(contexts, config):
    """Build the project graph over the parsed ``repro`` modules."""
    entries = {}
    for ctx in contexts:
        module = module_name_for(ctx.path)
        if module is None:
            continue
        entries[module] = ModuleEntry(
            module,
            ctx.path,
            extract_imports(ctx, module),
            summarize_module(ctx, module, config),
            _wall_clock_decl(ctx.tree),
        )
    return ProjectGraph(entries)
