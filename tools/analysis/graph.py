"""Phase 1: the cached whole-program project graph.

For every analyzed file that belongs to the ``repro`` namespace this
module derives

* its dotted **module name** (from the ``src/`` layout),
* its **import edges** (absolute and relative, module- and
  function-level, with line positions for reporting),
* its **class table** (methods, ``self.x = None`` null-default attrs),
* its **function taint summaries** (:mod:`tools.analysis.dataflow`).

Everything above is JSON-serializable and keyed on the file's content
hash, so re-runs only re-summarize files that actually changed: the
cache document (default ``.patlint-cache/graph.json``) is looked up per
``(path, sha256, config-hash, python-minor)`` and written back after
every graph build.  The cross-file passes (layering, cycles, taint
fixpoint) are cheap and run fresh each time.
"""

import ast
import hashlib
import json
import os
import sys

from .dataflow import FunctionSummary, summarize_module

CACHE_VERSION = 4
DEFAULT_CACHE_PATH = os.path.join(".patlint-cache", "graph.json")


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

    def as_dict(self):
        return {
            "target": self.target,
            "symbol": self.symbol,
            "lineno": self.lineno,
            "col": self.col,
            "module_level": self.module_level,
        }

    @classmethod
    def from_dict(cls, payload):
        return cls(
            payload["target"],
            payload.get("symbol"),
            payload["lineno"],
            payload["col"],
            payload.get("module_level", True),
        )


class ModuleEntry:
    """Cached facts about one module."""

    __slots__ = (
        "module",
        "path",
        "digest",
        "imports",
        "classes",
        "functions",
        "wall_clock_decl",
    )

    def __init__(
        self, module, path, digest, imports, classes, functions, wall_clock_decl
    ):
        self.module = module
        self.path = path
        self.digest = digest
        self.imports = imports
        self.classes = classes  # {class: {"methods": [...]}}
        self.functions = functions  # {qualname: FunctionSummary}
        self.wall_clock_decl = wall_clock_decl  # lineno of wall_clock_variant=True

    def as_dict(self):
        return {
            "module": self.module,
            "path": self.path,
            "digest": self.digest,
            "imports": [edge.as_dict() for edge in self.imports],
            "classes": self.classes,
            "functions": {
                name: summary.as_dict()
                for name, summary in self.functions.items()
            },
            "wall_clock_decl": self.wall_clock_decl,
        }

    @classmethod
    def from_dict(cls, payload):
        return cls(
            payload["module"],
            payload["path"],
            payload["digest"],
            [ImportEdge.from_dict(item) for item in payload["imports"]],
            payload["classes"],
            {
                name: FunctionSummary.from_dict(item)
                for name, item in payload["functions"].items()
            },
            payload.get("wall_clock_decl"),
        )


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


def extract_classes(tree):
    classes = {}
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        methods = [
            stmt.name
            for stmt in node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        classes[node.name] = {"methods": methods}
    return classes


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

    def __init__(self, modules, cache_hits=0, cache_misses=0):
        self.modules = modules  # {module: ModuleEntry}
        self.by_path = {entry.path: entry for entry in modules.values()}
        self.cache_hits = cache_hits
        self.cache_misses = cache_misses

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


def _config_digest(config):
    payload = json.dumps(
        {
            "sources": sorted(config.taint_sources),
            "sink_methods": sorted(config.sink_methods),
            "sink_constructors": sorted(config.sink_constructors),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def load_cache(path):
    if not path or not os.path.exists(path):
        return {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError):
        return {}
    if document.get("version") != CACHE_VERSION:
        return {}
    return document.get("entries", {})


def store_cache(path, entries, config_digest):
    if not path:
        return
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    document = {
        "version": CACHE_VERSION,
        "python": "%d.%d" % sys.version_info[:2],
        "config": config_digest,
        "entries": entries,
    }
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(document, handle, sort_keys=True)
    os.replace(tmp, path)


def build_project_graph(contexts, config, cache_path=None):
    """Build (or incrementally refresh) the project graph."""
    config_digest = _config_digest(config)
    cached = load_cache(cache_path) if cache_path else {}
    entries = {}
    raw_entries = {}
    hits = misses = 0
    marker = "%s/%d.%d" % (config_digest, *sys.version_info[:2])
    for ctx in contexts:
        module = module_name_for(ctx.path)
        if module is None:
            continue
        digest = hashlib.sha256(ctx.source.encode("utf-8")).hexdigest()
        key = ctx.path
        prior = cached.get(key)
        if (
            prior is not None
            and prior.get("digest") == digest
            and prior.get("marker") == marker
        ):
            entry = ModuleEntry.from_dict(prior["entry"])
            hits += 1
        else:
            entry = ModuleEntry(
                module,
                ctx.path,
                digest,
                extract_imports(ctx, module),
                extract_classes(ctx.tree),
                summarize_module(ctx, module, config),
                _wall_clock_decl(ctx.tree),
            )
            misses += 1
        entries[module] = entry
        raw_entries[key] = {
            "digest": digest,
            "marker": marker,
            "entry": entry.as_dict(),
        }
    if cache_path:
        store_cache(cache_path, raw_entries, config_digest)
    return ProjectGraph(entries, hits, misses)
