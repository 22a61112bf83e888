"""PA2xx: virtual-time discipline.

The simulator core is cooperatively scheduled on a discrete-event clock
(``SimOS`` threads over ``sim.engine``).  Real OS concurrency or real
sleeping would race ahead of the virtual clock and destroy both the
accounting and the determinism, so none of it is allowed in ``src/``.
A real ``time.sleep`` is one of PA510's wall-clock sources.
"""

import ast

from ..framework import Rule

_THREADING_MODULES = frozenset(
    {"threading", "_thread", "multiprocessing", "concurrent"}
)


class ThreadingRule(Rule):
    code = "PA202"
    name = "os-threading"
    summary = "real OS concurrency primitive in the simulator core"
    scopes = ("src",)
    node_types = (ast.Import, ast.ImportFrom)

    def visit(self, node, ctx):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif node.level:
            return
        else:
            modules = [node.module or ""]
        for module in modules:
            if module.split(".")[0] in _THREADING_MODULES:
                yield ctx.finding(
                    node,
                    self.code,
                    "import of %s: real OS concurrency races ahead of the "
                    "virtual clock; SimOS threads are the only concurrency "
                    "primitive in the simulator core" % module,
                )


class AsyncConstructRule(Rule):
    code = "PA203"
    name = "asyncio"
    summary = "asyncio / native coroutines in the simulator core"
    scopes = ("src",)
    node_types = (
        ast.Import,
        ast.ImportFrom,
        ast.AsyncFunctionDef,
        ast.AsyncFor,
        ast.AsyncWith,
        ast.Await,
    )

    def visit(self, node, ctx):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif node.level:
                return
            else:
                modules = [node.module or ""]
            for module in modules:
                if module.split(".")[0] == "asyncio":
                    yield ctx.finding(
                        node,
                        self.code,
                        "import of %s: the event loop here is sim.engine, "
                        "driven in virtual time; asyncio schedules on wall "
                        "time" % module,
                    )
            return
        yield ctx.finding(
            node,
            self.code,
            "native async construct in the simulator core; model "
            "concurrency with SimOS threads so virtual-time accounting "
            "stays exact",
        )
