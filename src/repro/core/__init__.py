"""PA-Tree core: node format, latching, operation state machines, the
tree facade and the polled-mode asynchronous working-thread engine."""

from repro.core.costs import DEFAULT_COSTS, TreeCostModel
from repro.core.engine import (
    PERSISTENCE_STRONG,
    PERSISTENCE_WEAK,
    POLLER_CONTINUOUS,
    POLLER_MODEL,
    PaTreeEngine,
)
from repro.core.keys import (
    order_key,
    order_key_decode,
    order_key_range,
    zorder_decode,
    zorder_encode,
)
from repro.core.latch import EXCLUSIVE, LatchTable, SHARED
from repro.core.meta import META_PAGE, TreeMeta
from repro.core.node import INNER, LEAF, Node, TreeConfig
from repro.core.ops import (
    DELETE,
    INSERT,
    Operation,
    RANGE,
    SEARCH,
    SYNC,
    UPDATE,
    delete_op,
    insert_op,
    range_op,
    search_op,
    sync_op,
    update_op,
)
from repro.core.source import ClosedLoopSource, OpenLoopSource
from repro.core.tree import PaTree

__all__ = [
    "PaTree",
    "PaTreeEngine",
    "Node",
    "TreeConfig",
    "TreeMeta",
    "TreeCostModel",
    "DEFAULT_COSTS",
    "LatchTable",
    "SHARED",
    "EXCLUSIVE",
    "META_PAGE",
    "LEAF",
    "INNER",
    "Operation",
    "search_op",
    "range_op",
    "insert_op",
    "update_op",
    "delete_op",
    "sync_op",
    "SEARCH",
    "RANGE",
    "INSERT",
    "UPDATE",
    "DELETE",
    "SYNC",
    "ClosedLoopSource",
    "OpenLoopSource",
    "PERSISTENCE_STRONG",
    "PERSISTENCE_WEAK",
    "POLLER_CONTINUOUS",
    "POLLER_MODEL",
    "zorder_encode",
    "zorder_decode",
    "order_key",
    "order_key_decode",
    "order_key_range",
]
