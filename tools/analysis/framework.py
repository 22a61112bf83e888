"""patlint core: file loading, path scoping, suppressions and rule driving.

The framework is deliberately dependency-free (``ast`` + ``tokenize``
only) because the CI image and the offline dev container carry no
third-party linter.  It parses every file once, reads the ``IoStatus``
member list, drives a registry of rule instances over a single AST walk
per file, and then runs the whole-program rules over the project graph.
Rules declare which node types they want and which *path scopes* they
apply to, so ``src/`` is checked strictly while ``tests/`` and
``benchmarks/`` only get the relaxed subset.

Suppression syntax::

    something_noisy()  # patlint: ignore[PA510]
    other_thing()      # patlint: ignore[PA110, PA402]

A suppression must sit on the reported line and name the exact codes it
silences; a suppression that silences nothing is itself reported
(``PA901``) so stale pragmas cannot accumulate.
"""

import ast
import io
import os
import re
import tokenize

from .graph import build_project_graph
from .projconf import default_config

#: Where ``IoStatus`` is defined in this repository; its members are
#: read from here when no analyzed file defines the class.
IO_STATUS_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
    "repro",
    "nvme",
    "command.py",
)

#: Path scopes a rule can opt into.  ``src`` is the simulator core and
#: is checked strictly; the rest get the relaxed subset each rule
#: declares.
ALL_SCOPES = ("src", "tests", "benchmarks", "tools", "other")

_SCOPE_MARKERS = ("src", "tests", "benchmarks", "tools")

_SUPPRESS_RE = re.compile(r"#\s*patlint:\s*ignore\[([A-Za-z0-9_,\s]*)\]")
_PRAGMA_RE = re.compile(r"#\s*patlint:")

_ROOT_MARKERS = ("pyproject.toml", ".git", "setup.py")


_ROOT_CACHE = {}


def find_repo_root(start):
    """Nearest ancestor of ``start`` that looks like a repo root."""
    current = start if os.path.isdir(start) else os.path.dirname(start)
    current = os.path.abspath(current)
    if current in _ROOT_CACHE:
        return _ROOT_CACHE[current]
    first = current
    while True:
        if current in _ROOT_CACHE:
            _ROOT_CACHE[first] = _ROOT_CACHE[current]
            return _ROOT_CACHE[current]
        if any(
            os.path.exists(os.path.join(current, marker))
            for marker in _ROOT_MARKERS
        ):
            _ROOT_CACHE[first] = current
            return current
        parent = os.path.dirname(current)
        if parent == current:
            _ROOT_CACHE[first] = None
            return None
        current = parent


def canonical_path(path):
    """Repo-relative POSIX form of ``path``.

    Findings and the SARIF report key on this form, so a run from
    outside the repo root produces the same ``src/repro/...`` keys CI
    produces from the root.  Paths that do
    not live under a recognizable repo root (fixture files in a tmp
    dir) fall back to their absolute POSIX form.
    """
    absolute = os.path.abspath(path)
    root = find_repo_root(absolute)
    if root is not None:
        relative = os.path.relpath(absolute, root)
        if not relative.startswith(".."):
            return relative.replace(os.sep, "/")
    return absolute.replace(os.sep, "/")


def classify_path(path):
    """Map a file path onto one of :data:`ALL_SCOPES` by its segments."""
    parts = [part for part in path.replace(os.sep, "/").split("/") if part]
    for marker in _SCOPE_MARKERS:
        if marker in parts:
            return marker
    return "other"


def walk_shallow(root):
    """Yield ``root``'s subtree without descending into nested defs.

    Function-local rules (emit-context iteration tracking, return-value
    checks) must not confuse a closure's body with the enclosing
    function's, so this walker stops at nested function/class scopes.
    """
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef),
            ):
                continue
            stack.append(child)


class Finding:
    """One reported problem, addressable by (path, line, col, code)."""

    __slots__ = ("path", "line", "col", "code", "message")

    def __init__(self, path, line, col, code, message):
        self.path = path.replace(os.sep, "/")
        self.line = line
        self.col = col
        self.code = code
        self.message = message

    def sort_key(self):
        return (self.path, self.line, self.col, self.code)

    def render(self):
        return "%s:%d:%d: %s %s" % (
            self.path,
            self.line,
            self.col,
            self.code,
            self.message,
        )

    def as_dict(self):
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
        }

    def __repr__(self):
        return "Finding(%s)" % self.render()


class Rule:
    """Base class for patlint rules.

    Subclasses set the class attributes and implement :meth:`visit`
    (called once per AST node whose type is in ``node_types``) and/or
    :meth:`end_file` (called once per file, after the walk).  Both are
    generators of :class:`Finding`.
    """

    code = "PA000"
    name = "unnamed"
    summary = ""
    scopes = ("src",)
    node_types = ()

    def visit(self, node, ctx):
        return ()

    def end_file(self, ctx):
        return ()


class GraphRule:
    """Base class for whole-program (phase-2) rules.

    Graph rules see the phase-1 :class:`~tools.analysis.graph.
    ProjectGraph` plus every parsed :class:`FileContext` at once and
    yield findings anywhere in the project.  Their findings pass
    through the same per-line suppressions as per-file findings.
    """

    code = "PA500"
    name = "unnamed-graph"
    summary = ""
    scopes = ("src",)

    def run(self, graph, contexts, config):
        """Yield :class:`Finding` objects for the whole project."""
        return ()


def enum_member_names(classdef):
    """Uppercase-style value assignments in an enum class body."""
    members = []
    for stmt in classdef.body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and not stmt.targets[0].id.startswith("_")
        ):
            members.append(stmt.targets[0].id)
    return tuple(members)


def _io_status_in(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "IoStatus":
            members = enum_member_names(node)
            if members:
                return members
    return ()


def io_status_members(contexts):
    """``IoStatus`` members from the analyzed files, else the repo's."""
    for ctx in contexts:
        members = _io_status_in(ctx.tree)
        if members:
            return members
    with open(IO_STATUS_PATH, "r", encoding="utf-8") as handle:
        return _io_status_in(ast.parse(handle.read(), filename=IO_STATUS_PATH))


class _Suppression:
    __slots__ = ("codes", "used", "malformed")

    def __init__(self, codes, malformed=False):
        self.codes = codes
        self.used = set()
        self.malformed = malformed


def parse_suppressions(source):
    """Map line number -> :class:`_Suppression` for ``# patlint:`` pragmas."""
    suppressions = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [
            (token.start[0], token.string)
            for token in tokens
            if token.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError):
        return suppressions
    for lineno, text in comments:
        if not _PRAGMA_RE.search(text):
            continue
        match = _SUPPRESS_RE.search(text)
        if match is None:
            suppressions[lineno] = _Suppression(frozenset(), malformed=True)
            continue
        codes = frozenset(
            code.strip() for code in match.group(1).split(",") if code.strip()
        )
        suppressions[lineno] = _Suppression(codes, malformed=not codes)
    return suppressions


class FileContext:
    """Everything rules need to know about one parsed file."""

    def __init__(self, path, source, tree):
        self.path = canonical_path(path)
        self.scope = classify_path(path)
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        self.io_status_members = ()
        self.suppressions = parse_suppressions(source)
        self.import_map = build_import_map(tree)
        self._parents = None

    @classmethod
    def load(cls, path):
        with open(path, "rb") as handle:
            raw = handle.read()
        source = raw.decode("utf-8")
        tree = ast.parse(source, filename=path)
        return cls(path, source, tree)

    def parent(self, node):
        if self._parents is None:
            self._parents = {}
            for outer in ast.walk(self.tree):
                for child in ast.iter_child_nodes(outer):
                    self._parents[id(child)] = outer
        return self._parents.get(id(node))

    def resolve(self, node):
        """Dotted origin of a Name/Attribute chain, alias-aware.

        ``import time as t; t.perf_counter`` resolves to
        ``"time.perf_counter"``; returns ``None`` when the chain does
        not bottom out in a plain name (e.g. a method on a call result).
        """
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(self.import_map.get(node.id, node.id))
        return ".".join(reversed(parts))

    def line_text(self, lineno):
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def finding(self, node, code, message):
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(self.path, line, col, code, message)


def build_import_map(tree):
    """Local binding name -> dotted module/object it refers to."""
    mapping = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    mapping[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    mapping[root] = root
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                continue  # relative: project-internal, never a deny-list hit
            module = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                mapping[local] = module + "." + alias.name if module else alias.name
    return mapping


def iter_py_files(paths):
    for path in paths:
        if os.path.isfile(path):
            yield path
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                name
                for name in dirnames
                if name != "__pycache__" and not name.startswith(".")
            )
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    yield os.path.join(dirpath, filename)


class Result:
    """Outcome of one analysis run."""

    __slots__ = ("findings", "files", "unparsed", "graph")

    def __init__(self, findings, files, unparsed, graph):
        self.findings = findings
        self.files = files
        self.unparsed = unparsed  # paths that raised SyntaxError
        self.graph = graph


def run_rules_raw(ctx, rules):
    """Run every scope-applicable rule over one file's AST, once."""
    active = [rule for rule in rules if ctx.scope in rule.scopes]
    dispatch = {}
    for rule in active:
        for node_type in rule.node_types:
            dispatch.setdefault(node_type, []).append(rule)
    raw = []
    if dispatch:
        for node in ast.walk(ctx.tree):
            for rule in dispatch.get(type(node), ()):
                raw.extend(rule.visit(node, ctx))
    for rule in active:
        raw.extend(rule.end_file(ctx))
    return raw


def apply_suppressions(ctx, raw):
    """Filter suppressed findings; report stale or malformed pragmas."""
    kept = []
    for finding in raw:
        entry = ctx.suppressions.get(finding.line)
        if entry is not None and finding.code in entry.codes:
            entry.used.add(finding.code)
            continue
        kept.append(finding)
    for lineno in sorted(ctx.suppressions):
        entry = ctx.suppressions[lineno]
        if entry.malformed:
            kept.append(
                Finding(
                    ctx.path,
                    lineno,
                    0,
                    "PA901",
                    "unparseable patlint pragma; expected "
                    "'# patlint: ignore[PAnnn, ...]'",
                )
            )
            continue
        for code in sorted(entry.codes - entry.used):
            kept.append(
                Finding(
                    ctx.path,
                    lineno,
                    0,
                    "PA901",
                    "suppression for %s matched no finding on this line; "
                    "remove the stale pragma" % code,
                )
            )
    return kept


def analyze_paths(paths, rules, graph_rules):
    """Analyze every ``.py`` file under ``paths``.

    ``rules`` are the per-file (single-AST-walk) rules.  Phase 1 then
    builds the project graph over the parsed contexts and phase 2 runs
    each of ``graph_rules`` against it; graph findings are routed
    through the owning file's suppression pragmas before the shared
    sort.  A file that does not parse is skipped and listed in the
    result's ``unparsed``.
    """
    contexts = []
    unparsed = []
    files = 0
    for path in iter_py_files(paths):
        files += 1
        try:
            contexts.append(FileContext.load(path))
        except SyntaxError:
            unparsed.append(path)
    members = io_status_members(contexts)
    raw_by_path = {}
    for ctx in contexts:
        ctx.io_status_members = members
        raw_by_path[ctx.path] = run_rules_raw(ctx, rules)
    config = default_config()
    graph = build_project_graph(contexts, config)
    scope_of = {ctx.path: ctx.scope for ctx in contexts}
    for rule in graph_rules:
        for finding in rule.run(graph, contexts, config):
            if scope_of[finding.path] in rule.scopes:
                raw_by_path[finding.path].append(finding)
    findings = []
    for ctx in contexts:
        findings.extend(apply_suppressions(ctx, raw_by_path[ctx.path]))
    findings.sort(key=Finding.sort_key)
    return Result(findings, files, unparsed, graph)
