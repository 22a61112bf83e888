"""Bloom filters for SSTables.

Per-table filters let point lookups skip tables that cannot contain
the key — the standard LevelDB optimization, and important here
because every skipped table saves a simulated device read.

Layout: one byte per bit position in a ``bytearray``.  Key ``key``
sets positions ``(h1 + i*h2) % n_bits`` for ``i < k`` (double
hashing), walked by stride: start at ``h1 % n_bits`` and step by
``h2 % n_bits`` modulo ``n_bits``.  The hash is spelled out in both
methods so that building and probing make no call per key.
"""

_MASK64 = 0xFFFFFFFFFFFFFFFF
_MUL1 = 0x9E3779B97F4A7C15
_MUL2 = 0xC2B2AE3D27D4EB4F
#: Filter size per key, LevelDB's default; k = round(bits * ln 2) probes.
BITS_PER_KEY = 10


class BloomFilter:
    """Fixed-size Bloom filter over u64 keys, built once from its keys."""

    __slots__ = ("n_bits", "k", "_bits")

    def __init__(self, keys):
        n_bits = self.n_bits = max(64, max(len(keys), 1) * BITS_PER_KEY)
        k = self.k = max(1, min(8, int(round(BITS_PER_KEY * 0.69))))
        bits = self._bits = bytearray(n_bits)
        for key in keys:
            pos = ((key * _MUL1) & _MASK64) % n_bits
            step = ((((key ^ (key >> 33)) * _MUL2) & _MASK64) | 1) % n_bits
            for _ in range(k):
                bits[pos] = 1
                pos += step
                if pos >= n_bits:
                    pos -= n_bits

    def may_contain(self, key):
        n_bits = self.n_bits
        pos = ((key * _MUL1) & _MASK64) % n_bits
        step = ((((key ^ (key >> 33)) * _MUL2) & _MASK64) | 1) % n_bits
        bits = self._bits
        for _ in range(self.k):
            if not bits[pos]:
                return False
            pos += step
            if pos >= n_bits:
                pos -= n_bits
        return True
