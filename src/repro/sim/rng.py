"""Seeded random-number streams.

Every stochastic component (device service times, workload key draws,
arrival processes, ...) draws from its own named stream derived from a
single experiment seed.  Independent streams mean that, for example,
changing the workload generator does not perturb device service times,
which keeps A/B comparisons between schedulers and baselines paired.
"""

import random
import zlib


class RngRegistry:
    """Factory of named, deterministically seeded ``random.Random``."""

    def __init__(self, seed=0):
        self.seed = int(seed)
        self._streams = {}

    def stream(self, name):
        """Return the stream for ``name``, creating it on first use.

        The per-stream seed mixes the registry seed with a CRC of the
        name, so streams are stable across runs and independent of the
        order in which they are first requested.
        """
        stream = self._streams.get(name)
        if stream is None:
            mixed = (self.seed * 0x9E3779B1 + zlib.crc32(name.encode())) & 0xFFFFFFFF
            stream = random.Random(mixed)
            self._streams[name] = stream
        return stream
