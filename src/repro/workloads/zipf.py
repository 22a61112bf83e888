"""Zipfian key-rank sampling.

The paper draws YCSB keys from a Zipfian distribution with skew
``alpha`` (default 0.3).  We precompute the normalized CDF over the
``n`` ranks once and sample by binary search, so draws are O(log n)
and the whole stream is reproducible from the seed.  Standard library
only: the weights are libm's ``pow`` and the running sum adds left to
right, so the CDF is the same bytes on every CPython.
"""

from bisect import bisect_left
from itertools import accumulate

from repro.errors import WorkloadError


class ZipfSampler:
    """Samples ranks in ``[0, n)`` with P(rank k) ∝ 1 / (k+1)^alpha."""

    def __init__(self, n, alpha, rng):
        if n < 1:
            raise WorkloadError("need at least one rank")
        if alpha < 0:
            raise WorkloadError("alpha must be non-negative")
        self.n = n
        self.alpha = alpha
        self._rng = rng
        cdf = list(accumulate(1.0 / float(k) ** alpha for k in range(1, n + 1)))
        total = cdf[-1]
        self._cdf = [value / total for value in cdf]

    def sample(self):
        """One rank draw."""
        return bisect_left(self._cdf, self._rng.random())

    def sample_many(self, count):
        """``count`` rank draws as a list."""
        cdf = self._cdf
        random = self._rng.random
        return [bisect_left(cdf, random()) for _ in range(count)]


_SCATTER_PRIME = 2_654_435_761  # Knuth's multiplicative-hash prime


def scatter_rank(rank, n):
    """Bijectively scatter hot ranks across the key space.

    Without scattering, Zipf rank 0..k would be adjacent keys sharing
    one leaf, overstating locality.  Multiplying by a prime coprime to
    ``n`` permutes ``0..n-1`` (a true bijection for every ``n`` below
    the prime) while spreading consecutive ranks far apart.
    """
    if n >= _SCATTER_PRIME:
        raise WorkloadError("key population too large to scatter")
    return (rank * _SCATTER_PRIME) % n
