"""CPU cost model for index work.

Virtual-time CPU charges for the computational steps of index
operations, calibrated so a buffered point search costs a few
microseconds of CPU — the scale implied by the paper's Table II
(PA-Tree: 3.23 K cycles/op on a 2.3 GHz core ~= 1.4 us/op of pure
compute, plus driver interaction).

Charges are tagged with the paper's Fig 9 categories:

* node parse / search / update / serialize -> ``real_work``
* latch requests, grants and releases      -> ``synchronization``
* driver submit / probe                    -> ``nvme`` (charged by callers)
* ready-queue maintenance, probe-model     -> ``scheduling``
"""

from repro.sim.clock import usec


class TreeCostModel:
    """Per-step CPU costs, in nanoseconds.

    One calibration: every tree and worker reads :data:`DEFAULT_COSTS`,
    so a sensitivity sweep patches its attributes in-process.
    """

    __slots__ = (
        "dispatch_ns",
        "admit_ns",
        "latch_request_ns",
        "latch_release_ns",
        "node_parse_ns",
        "node_search_ns",
        "leaf_update_ns",
        "node_serialize_ns",
        "split_ns",
        "merge_ns",
        "buffer_lookup_ns",
        "priority_pick_ns",
        "probe_model_ns",
        "idle_spin_ns",
        "handoff_sync_ns",
    )

    def __init__(self):
        self.dispatch_ns = usec(0.10)
        self.admit_ns = usec(0.10)
        self.latch_request_ns = usec(0.10)
        self.latch_release_ns = usec(0.08)
        self.node_parse_ns = usec(0.50)
        self.node_search_ns = usec(0.50)
        self.leaf_update_ns = usec(0.60)
        self.node_serialize_ns = usec(0.50)
        self.split_ns = usec(0.80)
        self.merge_ns = usec(0.80)
        self.buffer_lookup_ns = usec(0.12)
        self.priority_pick_ns = usec(0.10)
        self.probe_model_ns = usec(0.10)
        self.idle_spin_ns = usec(1.0)
        self.handoff_sync_ns = usec(0.35)


DEFAULT_COSTS = TreeCostModel()
