"""PA530: the hook-slot contract (graph rule).

Every hook slot is registered in ``layers.toml [hooks]`` as
``Class.slot`` and is one of two kinds:

* an **observer** slot holds a tuple of callables.  Its owner assigns
  it only ``()``, at the definition site, and consults it as ``if
  self.slot:`` plus a loop; every other rebinding goes through
  ``repro.sim.hooks.subscribe`` / ``unsubscribe`` (which use
  ``setattr``), so *any* other assignment statement in ``src`` — a
  session overwriting ``device.on_complete``, a teardown resetting it
  to ``None`` — is a finding: it would drop somebody else's observer;
* a **decision** slot returns a value, so it has one owner: ``None``
  by default, a non-``None`` binding only inside the ``binder``
  package (``repro.fuzz``), and every call behind an ``is not None``
  guard — an unguarded consult crashes on the default configuration,
  the one every test runs.

A ``self.on_* = ()`` / consulted ``self.on_* = None`` / ``perturb_*``
attribute that is missing from the registry is drift and is reported,
so a new slot cannot dodge the contract.  ``callback_receivers`` names
the variables (``op``) whose ``on_complete`` is a per-operation
completion callback that merely shares a slot's name.
"""

import ast
import re

from ..framework import GraphRule
from ..graph import module_name_for

#: attribute shapes that look like a hook slot
_HOOKISH_RE = re.compile(r"^(on_[a-z0-9_]+|perturb_[a-z0-9_]+)$")


def _is_none(node):
    return isinstance(node, ast.Constant) and node.value is None


def _is_empty_tuple(node):
    return isinstance(node, ast.Tuple) and not node.elts


def _mentions_hook(test, hook):
    """Does a guard test consult ``<...>.hook`` (or a plain ``hook``)?"""
    for node in ast.walk(test):
        if isinstance(node, ast.Attribute) and node.attr == hook:
            return True
        if isinstance(node, ast.Name) and node.id == hook:
            return True
    return False


def _is_none_check(test, hook, negated):
    """``<...>.hook is None`` (negated=False) / ``is not None`` (True)."""
    if not isinstance(test, ast.Compare) or len(test.ops) != 1:
        return False
    wanted = ast.IsNot if negated else ast.Is
    if not isinstance(test.ops[0], wanted):
        return False
    sides = [test.left, test.comparators[0]]
    return any(_is_none(side) for side in sides) and any(
        _mentions_hook(side, hook) for side in sides
    )


class HookContractRule(GraphRule):
    """PA530: hook slot rebound, mis-defaulted, unguarded or unregistered."""

    code = "PA530"
    name = "hook-contract"
    summary = "hook slot rebound, mis-defaulted, unguarded or unregistered"
    scopes = ("src",)

    def run(self, graph, contexts, config):
        project_contexts = [
            ctx for ctx in contexts if module_name_for(ctx.path) is not None
        ]
        #: attr names called anywhere in the project (for the drift half)
        consulted = set()
        for ctx in project_contexts:
            for node in ast.walk(ctx.tree):
                if isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Attribute
                ):
                    consulted.add(node.func.attr)

        for ctx in project_contexts:
            for node in ast.walk(ctx.tree):
                if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                    yield from self._check_assignment(
                        ctx, node, config, consulted
                    )
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in config.decision_slots
                    and not self._guarded(ctx, node, node.func.attr)
                ):
                    yield ctx.finding(
                        node,
                        self.code,
                        "decision slot %s is None by default; consult it "
                        "behind 'if %s is not None:'"
                        % (node.func.attr, ast.unparse(node.func)),
                    )

    # -- assignments: definition sites, rebinding, drift ----------------

    def _check_assignment(self, ctx, node, config, consulted):
        value = node.value
        if value is None:  # bare annotation
            return
        default = isinstance(node, (ast.Assign, ast.AnnAssign))
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if not isinstance(target, ast.Attribute):
                continue
            slot = target.attr
            receiver = (
                target.value.id if isinstance(target.value, ast.Name) else None
            )
            owner = None
            if receiver == "self":
                owner = "%s.%s" % (self._class_name(ctx, node), slot)
            message = None
            if slot in config.observer_slots:
                if owner is not None and owner not in config.observers:
                    # another class's own attribute (Operation.on_complete)
                    # unless it is shaped like a new observer slot
                    if _is_empty_tuple(value):
                        message = self._drift(owner)
                elif receiver in config.callback_receivers:
                    pass
                elif not (owner and default and _is_empty_tuple(value)):
                    message = (
                        "observer slot %s is assigned only () where its "
                        "owner defines it; rebind it through "
                        "repro.sim.hooks.subscribe / unsubscribe so other "
                        "observers stay subscribed" % slot
                    )
            elif slot in config.decision_slots:
                module = module_name_for(ctx.path)
                inside = module == config.decision_binder or module.startswith(
                    config.decision_binder + "."
                )
                if not _is_none(value) and not inside:
                    message = (
                        "decision slot %s must default to None; only %s "
                        "binds it, for the duration of one run"
                        % (slot, config.decision_binder)
                    )
            elif (
                owner is not None
                and _HOOKISH_RE.match(slot)
                and (
                    _is_empty_tuple(value)
                    or (_is_none(value) and slot in consulted)
                )
            ):
                message = self._drift(owner)
            if message is not None:
                yield ctx.finding(node, self.code, message)

    @staticmethod
    def _drift(owner):
        return (
            "%s looks like a hook slot but is not registered in "
            "layers.toml [hooks]; register it so the contract covers it"
            % owner
        )

    @staticmethod
    def _class_name(ctx, node):
        while node is not None and not isinstance(node, ast.ClassDef):
            node = ctx.parent(node)
        return node.name if node is not None else None

    # -- decision consults must be guarded ------------------------------

    def _guarded(self, ctx, call, hook):
        """Ancestor guard, boolean-op guard, ternary, early return, or
        the else-branch of an ``is None`` dispatch."""
        node = call
        while True:
            parent = ctx.parent(node)
            if parent is None:
                return False
            if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return self._early_return_guard(parent, call, hook)
            if isinstance(parent, (ast.If, ast.While)) and node is not parent.test:
                in_else = any(n is node for n in getattr(parent, "orelse", ()))
                if not in_else and _positive_guard(parent.test, hook):
                    return True
                # `if self.hook is None: ... else: self.hook(...)` — the
                # else branch implies the hook is bound, including the
                # or-chain form `if self.hook is None or shortcut():`
                if in_else and _negative_guard(parent.test, hook):
                    return True
            if isinstance(parent, ast.IfExp):
                if node is parent.body and _positive_guard(parent.test, hook):
                    return True
                if node is parent.orelse and _negative_guard(parent.test, hook):
                    return True
            if isinstance(parent, ast.BoolOp) and isinstance(parent.op, ast.And):
                for value in parent.values:
                    if value is node or any(
                        sub is node for sub in ast.walk(value)
                    ):
                        break
                    if _positive_guard(value, hook):
                        return True
            node = parent

    def _early_return_guard(self, funcdef, call, hook):
        """``if self.hook is None: return`` before the call, at body level."""
        for stmt in funcdef.body:
            if getattr(stmt, "lineno", 0) >= call.lineno:
                return False
            if (
                isinstance(stmt, ast.If)
                and _negative_guard(stmt.test, hook)
                and stmt.body
                and all(
                    isinstance(sub, (ast.Return, ast.Raise, ast.Continue))
                    for sub in stmt.body
                )
                and not stmt.orelse
            ):
                return True
        return False


def _positive_guard(test, hook):
    """Test that implies the hook is bound when it evaluates truthy."""
    if _is_none_check(test, hook, negated=True):
        return True
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        return any(_positive_guard(value, hook) for value in test.values)
    return False


def _negative_guard(test, hook):
    """Test that implies the hook is bound when it evaluates *falsy*.

    ``self.hook is None`` and the short-circuit dispatch form
    ``self.hook is None or cheap_default()`` both qualify: when the
    whole test is false, every or-term is false, so the hook is bound.
    """
    if _is_none_check(test, hook, negated=False):
        return True
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.Or):
        return any(_negative_guard(value, hook) for value in test.values)
    return False
