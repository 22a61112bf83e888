"""SSE-style order-book workload (paper §V).

Models the Shanghai Stock Exchange trace's index-visible behaviour:
outstanding limit orders for ~hundreds of stocks are kept in the B+
tree keyed by (stock id, price tick, sequence); a new order is matched
against outstanding orders with a range search over the opposite side
of the book, and matched orders are deleted.  Records average ~108
bytes, so this workload uses large payloads (deep trees, heavy I/O).

Mix: 28 % updates (order inserts and matched-order deletes) and 72 %
reads (range probes of the book), matching the paper's
characterization.
"""

from repro.core.keys import order_key, order_key_range
from repro.core.ops import delete_op, insert_op, range_op
from repro.errors import WorkloadError

PRICE_TICKS = 1 << 14  # price grid per stock


class _Stock:
    __slots__ = ("mid_tick",)

    def __init__(self, mid_tick):
        self.mid_tick = mid_tick

    def drift(self, rng):
        self.mid_tick = min(
            max(self.mid_tick + rng.randint(-3, 3), 100), PRICE_TICKS - 100
        )


class SseWorkload:
    """Synthetic order-book stream with the paper's 28 % update mix."""

    def __init__(
        self,
        n_stocks,
        n_preload,
        n_ops,
        rng,
        payload_size=100,
    ):
        if n_stocks < 1:
            raise WorkloadError("need at least one stock")
        self.n_stocks = n_stocks
        self.n_preload = n_preload
        self.n_ops = n_ops
        self.update_ratio = 0.28
        self.payload_size = payload_size
        # orders land within 12 ticks of a stock's mid price; a probe
        # reads that band of the book, at most 64 rows
        self.probe_width = 12
        self.range_limit = 64
        self._rng = rng
        self._stocks = [
            _Stock(rng.randint(1000, PRICE_TICKS - 1000)) for _ in range(n_stocks)
        ]
        self._seq = 0
        self._live_orders = []  # keys believed to be in the tree

    def _payload(self, key):
        base = key.to_bytes(8, "little")
        return (base * (self.payload_size // 8 + 1))[: self.payload_size]

    def _new_order_key(self):
        rng = self._rng
        stock_id = rng.randrange(self.n_stocks)
        stock = self._stocks[stock_id]
        stock.drift(rng)
        tick = min(
            max(stock.mid_tick + rng.randint(-self.probe_width, self.probe_width), 0),
            PRICE_TICKS - 1,
        )
        self._seq += 1
        return order_key(stock_id, tick, self._seq & 0xFFFFFF)

    def preload_items(self):
        items = {}
        for _ in range(self.n_preload):
            key = self._new_order_key()
            items[key] = self._payload(key)
        self._live_orders = sorted(items)
        return sorted(items.items())

    def operations(self):
        rng = self._rng
        for _ in range(self.n_ops):
            roll = rng.random()
            if roll < self.update_ratio:
                # Half the updates insert new orders, half delete
                # (matched/cancelled) outstanding ones.
                if rng.random() < 0.5 or not self._live_orders:
                    key = self._new_order_key()
                    self._live_orders.append(key)
                    yield insert_op(key, self._payload(key))
                else:
                    index = rng.randrange(len(self._live_orders))
                    key = self._live_orders[index]
                    last = self._live_orders.pop()
                    if index < len(self._live_orders):
                        self._live_orders[index] = last
                    yield delete_op(key)
            else:
                stock_id = rng.randrange(self.n_stocks)
                stock = self._stocks[stock_id]
                low_tick = max(stock.mid_tick - self.probe_width, 0)
                high_tick = min(stock.mid_tick + self.probe_width, PRICE_TICKS - 1)
                low, high = order_key_range(stock_id, low_tick, high_tick)
                yield range_op(low, high, limit=self.range_limit)
