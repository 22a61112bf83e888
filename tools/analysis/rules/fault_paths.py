"""PA3xx: fault-path hygiene.

Since the status-carrying completion path landed, every layer above the
device branches on :class:`IoStatus`.  These rules keep that dispatch
honest: no silently-swallowed errors, no string comparisons that can
never match an enum member, and no ``if/elif`` chains that quietly drop
a status on the floor when the enum grows a member.
"""

import ast

from ..framework import Rule


class BareExceptRule(Rule):
    code = "PA301"
    name = "bare-except"
    summary = "bare except: swallows typed I/O errors"
    scopes = ("src", "tools")
    node_types = (ast.ExceptHandler,)

    def visit(self, node, ctx):
        if node.type is None:
            yield ctx.finding(
                node,
                self.code,
                "bare 'except:' swallows typed I/O errors (and "
                "KeyboardInterrupt) indiscriminately; name the exception "
                "class",
            )


def _is_status_attribute(node):
    return isinstance(node, ast.Attribute) and node.attr == "status"


def _is_string_literal(node):
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


class StatusStringCompareRule(Rule):
    code = "PA302"
    name = "status-string-compare"
    summary = ".status compared against a string literal"
    scopes = ("src",)
    node_types = (ast.Compare,)

    def visit(self, node, ctx):
        sides = [node.left] + list(node.comparators)
        has_status = any(_is_status_attribute(side) for side in sides)
        has_literal = any(_is_string_literal(side) for side in sides)
        if has_status and has_literal:
            yield ctx.finding(
                node,
                self.code,
                "'.status' compared against a string literal; statuses are "
                "IoStatus enum members — compare against the enum (or "
                "str(status))",
            )


def _io_status_member(node):
    """``IoStatus.X`` (possibly through a module path) -> ``"X"``."""
    if not isinstance(node, ast.Attribute):
        return None
    base = node.value
    if isinstance(base, ast.Name) and base.id == "IoStatus":
        return node.attr
    if isinstance(base, ast.Attribute) and base.attr == "IoStatus":
        return node.attr
    return None


class IoStatusDispatchRule(Rule):
    """Non-exhaustive ``if/elif`` dispatch over IoStatus members.

    A chain of two or more ``if/elif`` arms whose tests all compare
    against ``IoStatus`` members is a dispatch; without an ``else`` it
    must cover every member, or a future enum member falls through
    silently.  A single ``if`` with no ``elif`` is treated as a guard
    and left alone.  The members are read from the ``IoStatus`` class
    the analyzed files define, else from ``src/repro/nvme/command.py``.
    """

    code = "PA303"
    name = "iostatus-dispatch"
    summary = "if/elif over IoStatus with no else and members missing"
    scopes = ("src",)
    node_types = (ast.If,)

    def visit(self, node, ctx):
        parent = ctx.parent(node)
        if (
            isinstance(parent, ast.If)
            and len(parent.orelse) == 1
            and parent.orelse[0] is node
        ):
            return  # an elif arm; handled from the chain head
        matched = self._members_tested(node.test)
        if matched is None:
            return
        arms = 1
        cursor = node
        while len(cursor.orelse) == 1 and isinstance(cursor.orelse[0], ast.If):
            cursor = cursor.orelse[0]
            more = self._members_tested(cursor.test)
            if more is None:
                return  # mixed chain, not a pure status dispatch
            matched |= more
            arms += 1
        if arms < 2 or cursor.orelse:
            return  # lone guard, or an else makes it exhaustive
        missing = sorted(set(ctx.io_status_members) - matched)
        if missing:
            yield ctx.finding(
                node,
                self.code,
                "non-exhaustive IoStatus dispatch: %s unhandled; add an "
                "else arm or cover every member" % ", ".join(missing),
            )

    def _members_tested(self, test):
        """Member names a test covers, or None if not an IoStatus test."""
        if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.Or):
            members = set()
            for value in test.values:
                sub = self._members_tested(value)
                if sub is None:
                    return None
                members |= sub
            return members
        if not isinstance(test, ast.Compare) or len(test.ops) != 1:
            return None
        op = test.ops[0]
        comparator = test.comparators[0]
        if isinstance(op, (ast.Eq, ast.Is)):
            members = set()
            for side in (test.left, comparator):
                member = _io_status_member(side)
                if member is not None:
                    members.add(member)
            return members or None
        if isinstance(op, ast.In) and isinstance(
            comparator, (ast.Tuple, ast.List, ast.Set)
        ):
            members = set()
            for element in comparator.elts:
                member = _io_status_member(element)
                if member is None:
                    return None
                members.add(member)
            return members or None
        return None
