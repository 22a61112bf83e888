"""Rule registry.

Every concrete per-file rule class is listed in :data:`RULE_CLASSES`
and every whole-program (phase-2) rule class in
:data:`GRAPH_RULE_CLASSES`; :func:`all_rules` / :func:`all_graph_rules`
hand fresh instances to the framework so state never leaks between
analysis runs.  ``PA901`` (stale suppressions) is emitted by the
framework itself and is listed in :data:`FRAMEWORK_CODES` so
``--list-rules`` shows the full catalog.
"""

from .determinism import AmbientEntropyRule, IdOrderingRule, UnorderedIterationRule
from .virtual_time import AsyncConstructRule, ThreadingRule
from .fault_paths import BareExceptRule, IoStatusDispatchRule, StatusStringCompareRule
from .api_contracts import StatsByReferenceRule, UnusedImportRule
from .batching import PerElementBatchLoopRule
from .fuzzing import FuzzRngDisciplineRule
from .observability import ConsoleOutputRule
from .layering import BoundaryImportRule, ImportCycleRule, LayeringRule
from .taint import (
    WallClockBlessingRule,
    WallClockFlowRule,
    WallClockSourceRule,
)
from .latches import LatchExceptionRule, LatchPairingRule
from .hooks_contract import HookContractRule

RULE_CLASSES = (
    AmbientEntropyRule,
    IdOrderingRule,
    UnorderedIterationRule,
    ThreadingRule,
    AsyncConstructRule,
    BareExceptRule,
    StatusStringCompareRule,
    IoStatusDispatchRule,
    StatsByReferenceRule,
    UnusedImportRule,
    ConsoleOutputRule,
    PerElementBatchLoopRule,
    FuzzRngDisciplineRule,
)

#: Whole-program rules (phase 2).
GRAPH_RULE_CLASSES = (
    LayeringRule,
    BoundaryImportRule,
    ImportCycleRule,
    WallClockSourceRule,
    WallClockFlowRule,
    WallClockBlessingRule,
    LatchPairingRule,
    LatchExceptionRule,
    HookContractRule,
)

#: Codes minted by the framework rather than by a rule class.
FRAMEWORK_CODES = (
    ("PA901", "stale-suppression", "patlint pragma that silences nothing", "all"),
)


def all_rules():
    """Fresh rule instances for one analysis run."""
    return [cls() for cls in RULE_CLASSES]


def all_graph_rules():
    """Fresh graph-rule instances for one analysis run."""
    return [cls() for cls in GRAPH_RULE_CLASSES]
