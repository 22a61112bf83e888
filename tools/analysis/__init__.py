"""patlint: multi-pass determinism & fault-path static analyzer.

A dependency-free framework purpose-built for this reproduction: one
shared AST walk per file feeds a registry of rules with stable codes —

* ``PA1xx`` determinism (ambient entropy, id-keyed ordering,
  unordered iteration into emitted output),
* ``PA2xx`` virtual-time discipline (no threading/asyncio in the
  simulator core),
* ``PA3xx`` fault-path hygiene (bare excepts, string status compares,
  non-exhaustive ``IoStatus`` dispatch),
* ``PA4xx`` API contracts (stats-by-reference, unused imports),
* ``PA5xx`` whole-program rules (layer map, NVMe boundary, import
  cycles, wall-clock taint, latch discipline, hook contract) — these
  run against the phase-1 project graph every run builds,
* ``PA901`` stale suppressions (a file that does not parse is listed
  in ``Result.unparsed`` and fails the CLI).

Run it with ``python -m tools.analysis [paths...]`` or programmatically
via :func:`analyze`.  See the README's "Static analysis" section and
``ARCHITECTURE.md`` for the rule catalog, the layer map and the
suppression syntax.
"""

from .framework import Finding, GraphRule, Result, Rule, analyze_paths
from .rules import all_graph_rules, all_rules

__version__ = "3.0.0"

__all__ = [
    "Finding",
    "GraphRule",
    "Result",
    "Rule",
    "analyze",
    "__version__",
]


def analyze(paths):
    """Analyze ``paths`` with every rule and return a :class:`Result`."""
    return analyze_paths(paths, all_rules(), all_graph_rules())
