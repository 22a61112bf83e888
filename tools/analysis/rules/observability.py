"""PA4xx (continued): observability hygiene.

Library code must not write to the console behind the caller's back —
every human-facing line goes through an ``out=``-style callable (the
``repro.bench`` idiom) or the obs stack, so harnesses and tests can
capture or silence it.
"""

import ast

from ..framework import Rule

#: Call targets PA404 forbids in ``src/``.  ``out=print`` default
#: arguments are Name references, not calls, and stay clean by design.
_CONSOLE_CALLS = frozenset(
    {"print", "sys.stdout.write", "sys.stderr.write"}
)


class ConsoleOutputRule(Rule):
    code = "PA404"
    name = "console-output"
    summary = "print()/stream write in library code"
    scopes = ("src",)
    node_types = (ast.Call,)

    def visit(self, node, ctx):
        target = ctx.resolve(node.func)
        if target in _CONSOLE_CALLS:
            yield ctx.finding(
                node,
                self.code,
                "library code calls %s(); route output through an out= "
                "callable or the obs stack so callers control the "
                "console" % (target,),
            )

