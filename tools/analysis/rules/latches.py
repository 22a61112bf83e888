"""PA520-PA521: latch / resource discipline (CFG graph rules).

One set of plan generators (``repro.core.plans`` / ``repro.core.batch``)
serves both execution paradigms — the polled engine and the blocking
``SyncTreeAccessor`` (and LCB on top of it) interpret the same effects
— so what PA520 proves about a plan holds under both.  The Blink-tree's
plans (``repro.baselines.blink_tree``) are the same spelling.

Two spellings of latch manipulation exist in the tree:

* **effect spelling** — plan generators yield ``LatchEff(page, mode)``
  / ``UnlatchEff(page)`` / ``UnlatchManyEff(pages)``, and each tree
  level as one latch-coupled step ``CoupleEff(page, mode, parent)``
  (acquires ``page``, releases ``parent``), and the engine interprets
  them.  Within one plan the discipline is strict pairing:
  every acquired page must be released on **every** control-flow path
  to normal generator completion (the engine raises ``TreeError`` when
  an operation completes holding latches, but only at runtime, on the
  path that actually executed — PA520 checks all paths statically).
* **method spelling** — driver code calls ``latches.request(...)`` (the
  blocking table's ``acquire(...)``) / ``latches.release(...)``
  directly and tracks holds in persistent state (``op.held_latches``).
  Per-function pairing is *not* the invariant there; what must hold is
  that no except handler swallows an error while a latch may still be
  held without releasing it or delegating to a cleanup path
  (``_abort_op`` et al).  PA521 checks exactly that, on both spellings,
  using the CFG's exception edges.

Release matching is alias-aware (``prev = page_id`` connects the two
names, so the crabbing idiom ``LatchEff(child); UnlatchEff(prev)``
pairs up) and treats ``UnlatchManyEff`` / ``release_many`` / calls into
``*abort*``/``*release*``/``*cleanup*``-named helpers as releasing
everything outstanding.
"""

import ast

from ..cfg import build_cfg
from ..framework import GraphRule
from ..graph import module_name_for

WILDCARD = "*"


def _header_exprs(stmt):
    """Expressions evaluated *at* a statement node, excluding nested
    statement bodies (those are their own CFG nodes)."""
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, ast.ExceptHandler):
        return [stmt.type] if stmt.type is not None else []
    if isinstance(stmt, ast.Try):
        return []
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return []
    return [
        child
        for child in ast.iter_child_nodes(stmt)
        if isinstance(child, ast.expr)
    ]


class _FunctionFacts:
    """Acquire/release classification of one function's statements.

    Beyond exact-expression and name-alias matching, three idioms from
    the plan coroutines are modelled:

    * ``node = yield ReadEff(page_id)`` binds ``node`` to the page's
      object, so a later ``UnlatchEff(node.page_id)`` releases the
      ``page_id`` acquire (``page_sources``);
    * ``path_ids = [meta_page]`` / ``path_ids.append(page_id)`` makes
      ``path_ids`` a latch container, so ``for p in path_ids: yield
      UnlatchEff(p)`` releases every contained acquire and ``return
      path_ids`` transfers ownership to the caller (who drives this
      generator via ``yield from`` and releases the returned path) —
      an ownership-transferring return counts as a release of
      everything the container holds;
    * a shared step hands one latched node over the same way:
      ``return node`` (bound from ``ReadEff``) releases its page in the
      helper, and ``leaf = yield from helper(...)`` for a helper in
      ``handoffs`` acquires ``leaf``'s page in the caller, who must
      release ``leaf.page_id`` on every path.
    """

    def __init__(self, funcdef, config, handoffs=frozenset()):
        self.funcdef = funcdef
        self.config = config
        self.acquires = []  # (stmt, call node, page dump, page name|None)
        self.releases = {}  # id(stmt) -> set of page dumps / WILDCARD
        self.aliases = _alias_sets(funcdef)
        self.page_sources = {}  # name bound from ReadEff -> {page names}
        self.containers = {}  # container name -> {member names}
        self.loop_elems = {}  # loop target name -> {container member names}
        self.uses_effects = False
        statements = list(_own_statements(funcdef))
        for stmt in statements:
            self._collect_bindings(stmt)
            call = _handoff_call(stmt, handoffs)
            if call is not None:
                # a handed-over node is effect spelling even when the
                # caller yields no latch effect of its own
                self.uses_effects = True
                target = stmt.targets[0].id
                self.page_sources.setdefault(target, set())
                self.acquires.append((stmt, call, "pageof:%s" % target, None))
        for stmt in statements:
            if isinstance(stmt, ast.For) and isinstance(stmt.target, ast.Name):
                members = set()
                for name in _names_in(stmt.iter):
                    members.update(self.containers.get(name, ()))
                if members:
                    self.loop_elems.setdefault(stmt.target.id, set()).update(
                        members
                    )
            if isinstance(stmt, ast.Return) and stmt.value is not None:
                if any(
                    self.containers.get(name) for name in _names_in(stmt.value)
                ):
                    self.releases.setdefault(id(stmt), set()).add(WILDCARD)
                elif _plain_name(stmt.value) in self.page_sources:
                    self.releases.setdefault(id(stmt), set()).add(
                        "pageof:%s" % stmt.value.id
                    )
            for expr in _header_exprs(stmt):
                if expr is None:
                    continue
                for node in ast.walk(expr):
                    if isinstance(node, ast.Call):
                        self._classify_call(stmt, node)

    def _collect_bindings(self, stmt):
        config = self.config
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            value = stmt.value
            if isinstance(target, ast.Name):
                # node = yield ReadEff(page_id)
                if isinstance(value, ast.Yield) and isinstance(
                    value.value, ast.Call
                ):
                    call = value.value
                    name = _call_name(call)
                    if name in config.page_source_effects and call.args:
                        page = _plain_name(call.args[0])
                        if page is not None:
                            self.page_sources.setdefault(
                                target.id, set()
                            ).add(page)
                # path_ids = [meta_page, ...]
                if isinstance(value, (ast.List, ast.Tuple)):
                    members = {
                        elt.id
                        for elt in value.elts
                        if isinstance(elt, ast.Name)
                    }
                    if members:
                        self.containers.setdefault(target.id, set()).update(
                            members
                        )
        # path_ids.append(page_id)
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            call = stmt.value
            if (
                isinstance(call.func, ast.Attribute)
                and call.func.attr in ("append", "add")
                and isinstance(call.func.value, ast.Name)
                and call.args
            ):
                member = _plain_name(call.args[0])
                if member is not None:
                    self.containers.setdefault(
                        call.func.value.id, set()
                    ).add(member)

    def _classify_call(self, stmt, call):
        config = self.config
        func = call.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name is None:
            return
        if name in config.acquire_effects and call.args:
            self.uses_effects = True
            self.acquires.append(
                (stmt, call, ast.dump(call.args[0]), _plain_name(call.args[0]))
            )
            parent = (
                _parent_arg(call) if name in config.parent_release_effects else None
            )
            if parent is not None:
                self.releases.setdefault(id(stmt), set()).update(
                    self._release_keys(parent)
                )
        elif name in config.release_effects and call.args:
            self.uses_effects = True
            self.releases.setdefault(id(stmt), set()).update(
                self._release_keys(call.args[0])
            )
        elif name in config.release_many_effects:
            self.uses_effects = True
            self.releases.setdefault(id(stmt), set()).add(WILDCARD)
        elif isinstance(func, ast.Attribute):
            receiver = _receiver_text(func.value)
            # the page sits just before the mode in an acquire and last
            # in a release: ``request(op, page, mode)`` /
            # ``release(op, page)`` and the blocking table's
            # ``acquire(tls, op, page, mode)`` / ``release(tls, op, page)``
            if name in config.acquire_methods and "latch" in receiver:
                if len(call.args) >= 2:
                    self.acquires.append(
                        (
                            stmt,
                            call,
                            ast.dump(call.args[-2]),
                            _plain_name(call.args[-2]),
                        )
                    )
            elif name in config.release_methods and "latch" in receiver:
                if len(call.args) >= 2:
                    self.releases.setdefault(id(stmt), set()).update(
                        self._release_keys(call.args[-1])
                    )
            elif name in config.release_many_methods and "latch" in receiver:
                self.releases.setdefault(id(stmt), set()).add(WILDCARD)
            elif any(
                pattern in name for pattern in config.cleanup_name_patterns
            ):
                self.releases.setdefault(id(stmt), set()).add(WILDCARD)
        elif any(pattern in name for pattern in config.cleanup_name_patterns):
            self.releases.setdefault(id(stmt), set()).add(WILDCARD)

    def _release_keys(self, node):
        """Match keys for one released page expression."""
        keys = {ast.dump(node)}
        # UnlatchEff(node.page_id) where node came from `yield ReadEff(X)`
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "page_id"
            and isinstance(node.value, ast.Name)
            and node.value.id in self.page_sources
        ):
            keys.add("pageof:%s" % node.value.id)
        return keys

    def releases_match(self, stmt, page_dump, page_name):
        """Does ``stmt`` release the page acquired as ``page_dump``?"""
        released = self.releases.get(id(stmt))
        if not released:
            return False
        if WILDCARD in released or page_dump in released:
            return True
        group = (
            self.aliases.get(page_name, {page_name})
            if page_name is not None
            else set()
        )
        if not group:
            return False
        for other in released:
            if other.startswith("pageof:"):
                binding = other[len("pageof:"):]
                sources = set()
                for source in self.page_sources.get(binding, ()):
                    sources.update(self.aliases.get(source, {source}))
                if sources & group:
                    return True
                continue
            other_name = _dump_plain_name(other)
            if other_name is None:
                continue
            if other_name in group:
                return True
            if self.loop_elems.get(other_name, set()) & group:
                return True
        return False


def _own_statements(funcdef):
    stack = list(funcdef.body)
    while stack:
        stmt = stack.pop()
        yield stmt
        for child in ast.iter_child_nodes(stmt):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            if isinstance(child, (ast.stmt, ast.ExceptHandler)):
                stack.append(child)


def _parent_arg(call):
    """The page a step releases: its ``parent`` keyword or argument 2,
    None when it names none."""
    parent = call.args[2] if len(call.args) > 2 else None
    for keyword in call.keywords:
        if keyword.arg == "parent":
            parent = keyword.value
    if isinstance(parent, ast.Constant) and parent.value is None:
        return None
    return parent


def _plain_name(node):
    return node.id if isinstance(node, ast.Name) else None


def _handoff_call(stmt, handoffs):
    """The call in ``name = yield from helper(...)``, helper in ``handoffs``."""
    if (
        isinstance(stmt, ast.Assign)
        and len(stmt.targets) == 1
        and isinstance(stmt.targets[0], ast.Name)
        and isinstance(stmt.value, ast.YieldFrom)
        and isinstance(stmt.value.value, ast.Call)
        and _call_name(stmt.value.value) in handoffs
    ):
        return stmt.value.value
    return None


def _handoff_helpers(contexts, config):
    """Names of plan helpers that return a node still latched."""
    names = set()
    for ctx in contexts:
        if module_name_for(ctx.path) is None:
            continue
        for funcdef in _function_defs(ctx.tree):
            returned = {
                stmt.value.id
                for stmt in _own_statements(funcdef)
                if isinstance(stmt, ast.Return)
                and isinstance(stmt.value, ast.Name)
            }
            if not returned:
                continue
            facts = _FunctionFacts(funcdef, config)
            if facts.uses_effects and returned & set(facts.page_sources):
                names.add(funcdef.name)
    return frozenset(names)


def _names_in(expr):
    return {node.id for node in ast.walk(expr) if isinstance(node, ast.Name)}


def _call_name(call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


#: handlers for these are generator-protocol control flow, not error
#: swallowing (the engine drives plan coroutines with ``gen.send`` in a
#: ``try/except StopIteration`` loop; completion is checked separately)
_PROTOCOL_EXCEPTIONS = frozenset({"StopIteration", "GeneratorExit"})


def _is_protocol_handler(handler):
    kind = handler.type
    if kind is None:
        return False
    names = kind.elts if isinstance(kind, ast.Tuple) else [kind]
    return all(
        isinstance(name, ast.Name) and name.id in _PROTOCOL_EXCEPTIONS
        for name in names
    )


def _dump_plain_name(dump):
    """Recover the identifier from the dump of a plain Name node."""
    prefix = "Name(id='"
    if dump.startswith(prefix):
        rest = dump[len(prefix):]
        end = rest.find("'")
        if end != -1:
            return rest[:end]
    return None


def _receiver_text(node):
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts)).lower()


def _alias_sets(funcdef):
    """Union-find over ``a = b`` name-to-name assignments."""
    parent = {}

    def find(name):
        parent.setdefault(name, name)
        while parent[name] != name:
            parent[name] = parent[parent[name]]
            name = parent[name]
        return name

    for stmt in _own_statements(funcdef):
        if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Name):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    parent[find(target.id)] = find(stmt.value.id)
    groups = {}
    for name in list(parent):
        groups.setdefault(find(name), set()).add(name)
    return {
        name: group for group in groups.values() for name in group
    }


class LatchPairingRule(GraphRule):
    """PA520: a plan path reaches completion without releasing.

    What it cannot see:

    * Release matching is by alias and flow-insensitive: a release
      counts for an acquire when it names the same page expression or
      an alias of it, wherever it sits on the path, whichever hold it
      actually drops.  In a four-effect crabbing descent ``prev =
      page`` aliases the two names, so the ``UnlatchEff(prev)`` that
      drops the parent right after ``LatchEff(page)`` also "releases"
      the child: such a plan that forgets its *last* crabbing release
      (the leaf's, after the loop) still passes.  A step descent does
      not: the step's ``parent`` release sits on the acquiring
      statement, which a path never counts against its own acquire,
      so only the next level's step or a real leaf release pairs with
      it.  Every tree descent is a step descent; the Blink plans are
      not, and for them the runtime checks catch that one
      (``TreeError`` when an operation completes holding latches,
      ``LatchTable.assert_quiescent`` after a run).  A leaf release
      that names an alias of the wrong page still passes either way.
    * It checks effect acquires (``LatchEff``) and handed-over nodes
      only.  The method spelling -- ``request`` / ``acquire`` on a
      receiver whose name says latch, which in ``src/`` matches
      ``PaTreeEngine._process`` and ``BlockingInterpreter._serve`` --
      is collected for PA521 but never paired here; a method acquire
      that no path releases passes.  ``BlockingLatchTable``'s calls
      into its ``LatchTable`` match neither spelling.
    """

    code = "PA520"
    name = "latch-pairing"
    summary = "latch acquired on a path that completes without release"
    scopes = ("src",)

    def run(self, graph, contexts, config):
        handoffs = _handoff_helpers(contexts, config)
        for ctx in contexts:
            if module_name_for(ctx.path) is None:
                continue
            for funcdef in _function_defs(ctx.tree):
                facts = _FunctionFacts(funcdef, config, handoffs)
                if not facts.acquires or not facts.uses_effects:
                    continue
                cfg = build_cfg(funcdef)
                for stmt, call, page_dump, page_name in facts.acquires:
                    handed = _call_name(call) in handoffs
                    if not (handed or _is_effect_acquire(call, config)):
                        continue
                    node = cfg.node_for(stmt)
                    if node is None:
                        continue
                    leaks = cfg.paths_avoiding(
                        node,
                        [cfg.exit],
                        lambda n: n.stmt is not None
                        and facts.releases_match(n.stmt, page_dump, page_name),
                    )
                    if leaks:
                        what = (
                            "the node %s() returns" % _call_name(call)
                            if handed
                            else _page_text(call, ctx)
                        )
                        finding = ctx.finding(
                            call,
                            self.code,
                            "latch acquired here (%s) can reach the end of "
                            "'%s' without a matching release on some path; "
                            "every plan path must release via UnlatchEff / "
                            "UnlatchManyEff before completing"
                            % (what, funcdef.name),
                        )
                        yield finding


class LatchExceptionRule(GraphRule):
    """PA521: except handler swallows while a latch may be held."""

    code = "PA521"
    name = "latch-exception-leak"
    summary = "except handler swallows an error while a latch is held"
    scopes = ("src",)

    def run(self, graph, contexts, config):
        for ctx in contexts:
            if module_name_for(ctx.path) is None:
                continue
            for funcdef in _function_defs(ctx.tree):
                facts = _FunctionFacts(funcdef, config)
                if not facts.acquires:
                    continue
                cfg = build_cfg(funcdef)
                handler_nodes = [
                    node
                    for node in cfg.nodes
                    if isinstance(node.stmt, ast.ExceptHandler)
                    and not _is_protocol_handler(node.stmt)
                ]
                if not handler_nodes:
                    continue
                reported = set()
                for stmt, call, page_dump, page_name in facts.acquires:
                    node = cfg.node_for(stmt)
                    if node is None:
                        continue

                    def releases(n):
                        return n.stmt is not None and facts.releases_match(
                            n.stmt, page_dump, page_name
                        )

                    for handler in handler_nodes:
                        if id(handler) in reported:
                            continue
                        held_into_handler = cfg.paths_avoiding(
                            node, [handler], releases
                        )
                        if not held_into_handler:
                            continue
                        swallows = cfg.paths_avoiding(
                            handler, [cfg.exit], releases
                        )
                        if not swallows:
                            continue
                        reported.add(id(handler))
                        yield ctx.finding(
                            handler.stmt,
                            self.code,
                            "this except handler can swallow an error "
                            "raised while the latch acquired at line %d is "
                            "still held; release it (or delegate to an "
                            "abort/cleanup path, or re-raise) before "
                            "resuming normal flow" % call.lineno,
                        )


def _is_effect_acquire(call, config):
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return name in config.acquire_effects


def _page_text(call, ctx):
    if call.args:
        arg = call.args[0]
        segment = ctx.line_text(arg.lineno)
        try:
            return ast.unparse(arg)
        except Exception:
            return segment
    return "?"


def _function_defs(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
