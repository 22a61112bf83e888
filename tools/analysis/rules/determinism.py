"""PA1xx: determinism.

The reproduction's headline guarantee is that every run is bit-for-bit
deterministic in virtual time (EXPERIMENTS.md verifies artifacts across
worktrees byte-for-byte).  These rules keep the two classic leaks out
of ``src/``: ambient inputs (global entropy, object addresses) and
unordered-collection iteration feeding emitted output.  Host-clock
reads are PA510's, over the one source list in ``layers.toml``.
"""

import ast
import re

from ..framework import Rule, walk_shallow

# Module-level convenience functions of ``random`` share one ambient
# global stream; ``random.Random(seed)`` instances are how sim.rng
# builds its named streams and stay allowed.
_RANDOM_FNS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "choice",
        "choices",
        "sample",
        "shuffle",
        "uniform",
        "triangular",
        "betavariate",
        "expovariate",
        "gammavariate",
        "gauss",
        "lognormvariate",
        "normalvariate",
        "vonmisesvariate",
        "paretovariate",
        "weibullvariate",
        "getrandbits",
        "randbytes",
        "seed",
    }
)

_ENTROPY_EXACT = frozenset({"os.urandom", "os.getrandom"})
_ENTROPY_PREFIXES = ("uuid.", "secrets.", "numpy.random.")


class AmbientEntropyRule(Rule):
    code = "PA102"
    name = "ambient-entropy"
    summary = "ambient entropy source (global random, urandom, uuid, ...)"
    scopes = ("src",)
    node_types = (ast.Call,)

    def visit(self, node, ctx):
        dotted = ctx.resolve(node.func)
        if dotted is None:
            return
        hit = (
            dotted in _ENTROPY_EXACT
            or any(dotted.startswith(prefix) for prefix in _ENTROPY_PREFIXES)
            or (
                dotted.startswith("random.")
                and dotted.split(".", 1)[1] in _RANDOM_FNS
            )
        )
        if hit:
            yield ctx.finding(
                node,
                self.code,
                "call to %s draws ambient entropy; draw from a named "
                "sim.rng stream (RngRegistry.stream) instead" % dotted,
            )


class IdOrderingRule(Rule):
    code = "PA103"
    name = "id-ordering"
    summary = "ordering keyed on id() (object addresses vary per run)"
    scopes = ("src",)
    node_types = (ast.Call,)

    def visit(self, node, ctx):
        func = node.func
        is_order_call = (
            isinstance(func, ast.Name) and func.id in ("sorted", "min", "max")
        ) or (isinstance(func, ast.Attribute) and func.attr == "sort")
        if not is_order_call:
            return
        for keyword in node.keywords:
            if keyword.arg == "key" and self._keys_on_id(keyword.value):
                yield ctx.finding(
                    keyword.value,
                    self.code,
                    "ordering keyed on id(): object addresses differ between "
                    "runs; key on a stable field instead",
                )

    @staticmethod
    def _keys_on_id(value):
        if isinstance(value, ast.Name) and value.id == "id":
            return True
        if isinstance(value, ast.Lambda):
            return any(
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id == "id"
                for sub in ast.walk(value.body)
            )
        return False


_SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference"}
)

#: Function names whose output plausibly reaches stats dicts, traces or
#: bench artifacts; inside these, set-valued *locals* are tracked too.
_EMIT_NAME_RE = re.compile(
    r"(stats|snapshot|summary|report|export|emit|rows|dump|to_json|write)",
    re.IGNORECASE,
)


def _is_set_expr(node):
    """Syntactically-evident set value (literal, comprehension, call...)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        if isinstance(func, ast.Attribute) and func.attr in _SET_METHODS:
            return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


class UnorderedIterationRule(Rule):
    """Set iteration order depends on ``PYTHONHASHSEED`` for str/tuple
    elements, so any set feeding emitted output must go through
    ``sorted()``.  Dict iteration is insertion-ordered on every Python
    this repo supports and is deliberately not flagged.
    """

    code = "PA110"
    name = "unordered-iteration"
    summary = "iterating a set without sorted() (order leaks into output)"
    scopes = ("src",)
    node_types = (
        ast.For,
        ast.ListComp,
        ast.SetComp,
        ast.DictComp,
        ast.GeneratorExp,
        ast.FunctionDef,
    )

    def visit(self, node, ctx):
        if isinstance(node, ast.For):
            yield from self._check_iter(node.iter, ctx)
        elif isinstance(node, ast.FunctionDef):
            yield from self._check_emit_function(node, ctx)
        else:
            for gen in node.generators:
                yield from self._check_iter(gen.iter, ctx)

    def _check_iter(self, iterable, ctx):
        if _is_set_expr(iterable):
            yield ctx.finding(
                iterable,
                self.code,
                "iteration over a set: order varies under hash "
                "randomization and can leak into emitted stats/traces; "
                "wrap in sorted(...)",
            )

    def _check_emit_function(self, node, ctx):
        """Track set-valued locals inside emit-context functions."""
        if not _EMIT_NAME_RE.search(node.name):
            return
        assigned = {}
        rebound = set()
        for sub in walk_shallow(node):
            if isinstance(sub, ast.Assign) and len(sub.targets) == 1 and isinstance(
                sub.targets[0], ast.Name
            ):
                assigned.setdefault(sub.targets[0].id, []).append(
                    _is_set_expr(sub.value)
                )
            elif isinstance(sub, (ast.AugAssign, ast.AnnAssign)) and isinstance(
                sub.target, ast.Name
            ):
                value = getattr(sub, "value", None)
                assigned.setdefault(sub.target.id, []).append(
                    value is not None and _is_set_expr(value)
                )
            elif isinstance(sub, (ast.For, ast.comprehension)):
                for name_node in ast.walk(sub.target):
                    if isinstance(name_node, ast.Name):
                        rebound.add(name_node.id)
        args = node.args
        for arg in (
            list(args.posonlyargs)
            + list(args.args)
            + list(args.kwonlyargs)
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        ):
            rebound.add(arg.arg)
        set_names = frozenset(
            name
            for name, flags in assigned.items()
            if flags and all(flags) and name not in rebound
        )
        if not set_names:
            return
        # only the named-local case here: direct set expressions are
        # already flagged by the global For/comprehension visit.
        iterables = []
        for sub in walk_shallow(node):
            if isinstance(sub, ast.For):
                iterables.append(sub.iter)
            elif isinstance(
                sub, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                iterables.extend(gen.iter for gen in sub.generators)
        for iterable in iterables:
            if isinstance(iterable, ast.Name) and iterable.id in set_names:
                yield ctx.finding(
                    iterable,
                    self.code,
                    "iteration over the set-valued local '%s' inside an "
                    "emit-context function; wrap in sorted(...) so the "
                    "output order is deterministic" % iterable.id,
                )
