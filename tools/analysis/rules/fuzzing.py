"""PA407: schedule-fuzzing RNG discipline.

The fuzz-off determinism guarantee rests on every random draw in the
schedule fuzzer and at its hook sites flowing through a named, seeded
``RngRegistry`` stream — never through a privately constructed
``random.Random(...)`` (whose seed would be invisible to the
reproducer) and never through the ambient global stream.  (That the
decision slots themselves default to ``None`` is PA530's business.)
"""

import ast

from ..framework import Rule

#: Files that define the exploration hook sites, matched by path
#: suffix.  ``repro/fuzz/`` is matched as a path segment.
_HOOK_SITE_SUFFIXES = (
    "repro/simos/scheduler.py",
    "repro/nvme/device.py",
)


def _in_fuzz_package(path):
    return "/repro/fuzz/" in path or path.endswith("/repro/fuzz.py")


def _is_hook_site(path):
    return any(path.endswith(suffix) for suffix in _HOOK_SITE_SUFFIXES)


class FuzzRngDisciplineRule(Rule):
    """Private ``random.Random`` construction in fuzz/hook-site code.

    Ambient ``random.*`` calls are already PA102 everywhere in
    ``src``; in the fuzzer and at the hook sites even a *seeded*
    private ``random.Random(...)`` is wrong — a draw outside the
    experiment's ``RngRegistry`` makes (seed, trace) reproducers lie.
    The one exemption is ``sim/rng.py`` itself, where the registry
    mints its streams.
    """

    code = "PA407"
    name = "fuzz-rng-discipline"
    summary = "schedule-fuzz randomness outside the seeded RngRegistry"
    scopes = ("src",)
    node_types = (ast.Call,)

    def visit(self, node, ctx):
        if not (_in_fuzz_package(ctx.path) or _is_hook_site(ctx.path)):
            return
        dotted = ctx.resolve(node.func)
        if dotted == "random.Random":
            yield ctx.finding(
                node,
                self.code,
                "random.Random(...) constructed in schedule-fuzz code; "
                "draw from a named RngRegistry stream so the (seed, "
                "trace) reproducer captures every decision",
            )
