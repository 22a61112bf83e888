"""Service-time model for the simulated NVM media.

Each command occupies one of the device's internal channels for a
lognormally distributed service time whose mean depends on the opcode
(writes are slower than reads on the modelled SSD).  Lognormal service
times give the right qualitative behaviour: positive skew, occasional
slow I/Os, and out-of-order completions across channels.
"""

import math


class ServiceTimeModel:
    """Per-opcode lognormal service times with exact configured means."""

    __slots__ = (
        "read_mean_ns",
        "write_mean_ns",
        "sigma",
        "_read_mu",
        "_write_mu",
    )

    def __init__(self, read_mean_ns, write_mean_ns, sigma=0.25):
        if read_mean_ns <= 0 or write_mean_ns <= 0:
            raise ValueError("service means must be positive")
        if sigma < 0:
            raise ValueError("sigma must be non-negative")
        self.read_mean_ns = read_mean_ns
        self.write_mean_ns = write_mean_ns
        self.sigma = sigma
        # For lognormal X = exp(N(mu, sigma^2)), E[X] = exp(mu + sigma^2/2);
        # solve for mu so that the sample mean matches the configured mean.
        self._read_mu = math.log(read_mean_ns) - sigma * sigma / 2.0
        self._write_mu = math.log(write_mean_ns) - sigma * sigma / 2.0

    def sample(self, is_write, rng):
        """Draw one service time in nanoseconds."""
        if self.sigma == 0:
            return self.write_mean_ns if is_write else self.read_mean_ns
        mu = self._write_mu if is_write else self._read_mu
        return max(1, int(rng.lognormvariate(mu, self.sigma)))
