"""YCSB-style synthetic workloads (paper §V).

Three representative mixes over a preloaded key population:

* ``read_only``    — 100 % point searches,
* ``default``      — 90 % searches / 10 % updates,
* ``update_heavy`` — 50 % searches / 50 % updates.

Keys are drawn Zipfian (skew ``alpha``, default 0.3 as in the paper)
over the preloaded population; updates overwrite the payload of an
existing key (YCSB update semantics).  An optional ``insert_ratio``
carves part of the update share into inserts of fresh keys, exercising
splits.  Keys and payloads are 8 bytes.
"""

from repro.core.ops import insert_op, range_op, search_op, update_op
from repro.errors import WorkloadError
from repro.workloads.zipf import ZipfSampler, scatter_rank

MIX_READ_ONLY = "read_only"
MIX_DEFAULT = "default"
MIX_UPDATE_HEAVY = "update_heavy"

_UPDATE_RATIOS = {
    MIX_READ_ONLY: 0.0,
    MIX_DEFAULT: 0.10,
    MIX_UPDATE_HEAVY: 0.50,
}

# Preloaded keys sit on a coarse stride so fresh-insert keys (offset
# within the stride) never collide with them.
KEY_STRIDE = 1 << 20


def preload_key(index):
    """The ``index``-th preloaded key."""
    return (index + 1) * KEY_STRIDE


def payload_for(key, size=8):
    """Deterministic payload derived from the key."""
    return (key & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little") * (size // 8) + bytes(
        size % 8
    )


class YcsbWorkload:
    """Generates a preload set and an operation stream."""

    def __init__(
        self,
        n_keys,
        n_ops,
        mix=MIX_DEFAULT,
        alpha=0.3,
        rng=None,
        payload_size=8,
        insert_ratio=0.0,
        range_ratio=0.0,
        range_span=50,
    ):
        if rng is None:
            raise WorkloadError("an rng stream is required for reproducibility")
        if mix not in _UPDATE_RATIOS:
            raise WorkloadError("unknown mix %r" % (mix,))
        if not 0.0 <= insert_ratio <= 1.0:
            raise WorkloadError("insert_ratio outside [0, 1]")
        if not 0.0 <= range_ratio <= 1.0:
            raise WorkloadError("range_ratio outside [0, 1]")
        self.n_keys = n_keys
        self.n_ops = n_ops
        self.mix = mix
        self.alpha = alpha
        self.payload_size = payload_size
        self.update_ratio = _UPDATE_RATIOS[mix]
        self.insert_ratio = insert_ratio
        self.range_ratio = range_ratio
        self.range_span = range_span
        self._rng = rng
        self._sampler = ZipfSampler(n_keys, alpha, rng)
        self._fresh_serial = 0

    def preload_items(self):
        """Sorted unique (key, payload) pairs for bulk loading."""
        size = self.payload_size
        return [
            (preload_key(index), payload_for(preload_key(index), size))
            for index in range(self.n_keys)
        ]

    def _draw_key(self):
        rank = self._sampler.sample()
        return preload_key(scatter_rank(rank, self.n_keys))

    def _fresh_key(self):
        # A never-before-seen key adjacent to a Zipf-chosen anchor.
        self._fresh_serial += 1
        anchor = self._draw_key()
        return anchor + 1 + (self._fresh_serial % (KEY_STRIDE - 2))

    def operations(self):
        """Yield the operation stream (fresh Operation objects)."""
        size = self.payload_size
        rng = self._rng
        for _ in range(self.n_ops):
            if rng.random() < self.update_ratio:
                if self.insert_ratio and rng.random() < self.insert_ratio:
                    key = self._fresh_key()
                    yield insert_op(key, payload_for(key, size))
                else:
                    key = self._draw_key()
                    yield update_op(key, payload_for(key ^ 0x5A5A, size))
            elif self.range_ratio and rng.random() < self.range_ratio:
                # YCSB workload-E-style short scan from a Zipf start key
                low = self._draw_key()
                yield range_op(
                    low, low + self.range_span * KEY_STRIDE, limit=self.range_span
                )
            else:
                yield search_op(self._draw_key())
