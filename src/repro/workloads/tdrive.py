"""T-Drive-style trajectory workload (paper §V).

The paper indexes Beijing taxi GPS records by a z-order code of
(latitude, longitude); queries fetch all records within a z-code
range.  The mix is extremely update-heavy: 70 % inserts of new
trajectory points, 30 % z-code range queries.

We do not have the proprietary trace, so we synthesize trajectories
with the same index-visible shape: each taxi performs a bounded random
walk over the Beijing bounding box, points are quantized to a 20-bit
grid per axis, z-order interleaved, and made unique with a sequence
suffix.  Range queries cover a small spatial window around a recently
active taxi, mirroring the locality of the real queries.
"""

from repro.core.keys import quantize_coordinate, zorder_encode
from repro.core.ops import insert_op, range_op
from repro.errors import WorkloadError

# Beijing bounding box used by the T-Drive papers.
LAT_LOW, LAT_HIGH = 39.6, 40.3
LON_LOW, LON_HIGH = 116.0, 116.8

GRID_BITS = 20
SEQ_BITS = 22
_SEQ_MASK = (1 << SEQ_BITS) - 1


def trajectory_key(lat, lon, seq):
    """u64 key: 40-bit z-code of the quantized position | sequence."""
    x = quantize_coordinate(lon, LON_LOW, LON_HIGH, GRID_BITS)
    y = quantize_coordinate(lat, LAT_LOW, LAT_HIGH, GRID_BITS)
    zcode = zorder_encode(x, y)
    return (zcode << SEQ_BITS) | (seq & _SEQ_MASK)


def zrange_for_window(lat, lon, window):
    """(low, high) key range for a square window centred on a point.

    A z-range is a superset of the exact rectangle (standard z-order
    over-selection); the paper's queries are z-code ranges too.
    """
    x0 = quantize_coordinate(lon - window, LON_LOW, LON_HIGH, GRID_BITS)
    y0 = quantize_coordinate(lat - window, LAT_LOW, LAT_HIGH, GRID_BITS)
    x1 = quantize_coordinate(lon + window, LON_LOW, LON_HIGH, GRID_BITS)
    y1 = quantize_coordinate(lat + window, LAT_LOW, LAT_HIGH, GRID_BITS)
    low = zorder_encode(x0, y0) << SEQ_BITS
    high = (zorder_encode(x1, y1) << SEQ_BITS) | _SEQ_MASK
    if high < low:
        low, high = high, low
    return low, high


class _Taxi:
    __slots__ = ("lat", "lon")

    def __init__(self, lat, lon):
        self.lat = lat
        self.lon = lon

    def step(self, rng):
        # at most 0.003 degrees per axis per recorded point
        self.lat = min(max(self.lat + rng.uniform(-0.003, 0.003), LAT_LOW), LAT_HIGH)
        self.lon = min(max(self.lon + rng.uniform(-0.003, 0.003), LON_LOW), LON_HIGH)


class TDriveWorkload:
    """Synthetic taxi-trajectory stream with the paper's 70 % update mix."""

    def __init__(
        self,
        n_taxis,
        n_preload,
        n_ops,
        rng,
        payload_size=8,
    ):
        if n_taxis < 1:
            raise WorkloadError("need at least one taxi")
        self.n_taxis = n_taxis
        self.n_preload = n_preload
        self.n_ops = n_ops
        self.update_ratio = 0.70
        # a query fetches the z-range of a square of +-0.004 degrees
        # around a taxi, at most 256 rows
        self.query_window_deg = 0.004
        self.range_limit = 256
        self.payload_size = payload_size
        self._rng = rng
        self._taxis = [
            _Taxi(rng.uniform(LAT_LOW, LAT_HIGH), rng.uniform(LON_LOW, LON_HIGH))
            for _ in range(n_taxis)
        ]
        self._seq = 0

    def _payload(self, taxi_index):
        return taxi_index.to_bytes(4, "little") + self._seq.to_bytes(4, "little")

    def _next_point(self):
        rng = self._rng
        taxi_index = rng.randrange(self.n_taxis)
        taxi = self._taxis[taxi_index]
        taxi.step(rng)
        self._seq += 1
        key = trajectory_key(taxi.lat, taxi.lon, self._seq)
        return taxi_index, taxi, key

    def preload_items(self):
        """Sorted unique records for bulk loading."""
        items = {}
        for _ in range(self.n_preload):
            taxi_index, _taxi, key = self._next_point()
            items[key] = self._payload(taxi_index)
        return sorted(items.items())

    def operations(self):
        rng = self._rng
        for _ in range(self.n_ops):
            if rng.random() < self.update_ratio:
                taxi_index, _taxi, key = self._next_point()
                yield insert_op(key, self._payload(taxi_index))
            else:
                taxi = self._taxis[rng.randrange(self.n_taxis)]
                low, high = zrange_for_window(
                    taxi.lat, taxi.lon, self.query_window_deg
                )
                yield range_op(low, high, limit=self.range_limit)
