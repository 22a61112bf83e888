"""The linear-regression completion estimator (paper §IV-A).

The model maps the recent-submission feature vector ``T = w|r`` to the
expected number of completed (but not yet detected) write and read
I/Os, ``(w0, r0)``.  The working thread probes the NVMe interface only
when the model predicts at least one completion, which is the paper's
workload-aware probing strategy.

Training is offline against the device model: a synthetic driver
submits I/O with piecewise-random intensity and write ratio, probes
once per slice width, and records (features before probe, detected
completions) pairs; ``beta`` is the least-squares solution (the paper
trains the same model class with pandas; we use ``numpy.linalg``).
"""

import numpy as np

from repro.backend import DeviceProfile, make_backend
from repro.sched.history import DEFAULT_SLICES, DEFAULT_WINDOW_US, IoHistory
from repro.sim.clock import usec
from repro.sim.engine import Engine


class LinearProbeModel:
    """``(w0, r0) = T @ beta`` with a ``2n x 2`` parameter matrix."""

    def __init__(self, beta, window_us=DEFAULT_WINDOW_US, slices=DEFAULT_SLICES):
        beta = np.asarray(beta, dtype=np.float64)
        if beta.shape != (2 * slices, 2):
            raise ValueError(
                "beta shape %r, expected %r" % (beta.shape, (2 * slices, 2))
            )
        self.beta = beta
        self.window_us = window_us
        self.slices = slices
        # python floats: predict multiplies the same doubles in the same
        # order as with the ndarray columns, without boxing a numpy
        # scalar per term
        self._beta_w = beta[:, 0].tolist()
        self._beta_r = beta[:, 1].tolist()

    def predict(self, features):
        """Expected (completed writes, completed reads) right now."""
        n = len(features)
        w0 = 0.0
        r0 = 0.0
        beta_w = self._beta_w
        beta_r = self._beta_r
        for index in range(n):
            value = features[index]
            if value:
                w0 += value * beta_w[index]
                r0 += value * beta_r[index]
        return w0, r0

    def predicts_completion(self, features, threshold=1.0):
        w0, r0 = self.predict(features)
        return w0 >= threshold or r0 >= threshold


def train_probe_model(
    engine_seed,
    device_profile,
    duration_us=400_000,
    window_us=DEFAULT_WINDOW_US,
    slices=DEFAULT_SLICES,
    max_outstanding=96,
    ridge=1e-6,
):
    """Train a :class:`LinearProbeModel` against ``device_profile``.

    Drives the device model with open-loop traffic whose intensity and
    write ratio are re-drawn every few milliseconds (covering idle to
    saturated, read-only to write-heavy), samples features and detected
    completions once per slice width, and solves the ridge-regularized
    least-squares system.
    """
    engine = Engine(seed=engine_seed)
    backend = make_backend(
        "sim", engine=engine, profile=device_profile, rng_name="probe_train"
    )
    device = backend.device
    driver = backend.driver
    qpair = driver.alloc_qpair()
    history = IoHistory(engine.clock, window_us, slices)
    rng = engine.rng.stream("probe_train_load")

    slice_ns = usec(window_us) // slices
    segment_ns = usec(4_000)
    tick_ns = usec(5)

    rows_x = []
    rows_y = []
    state = {"rate_per_tick": 1.0, "write_ratio": 0.1, "segment_end": 0}

    def submit_tick():
        if engine.now >= state["segment_end"]:
            state["rate_per_tick"] = rng.uniform(0.0, 0.6)
            state["write_ratio"] = rng.uniform(0.0, 1.0)
            state["segment_end"] = engine.now + segment_ns
        expected = state["rate_per_tick"]
        count = int(expected)
        if rng.random() < expected - count:
            count += 1
        for _ in range(count):
            if history.outstanding_count >= max_outstanding:
                break
            lba = rng.randrange(1, device_profile.capacity_pages)
            if rng.random() < state["write_ratio"]:
                payload = bytes(device_profile.page_size)
                command = driver.write(qpair, lba, payload)
            else:
                command = driver.read(qpair, lba)
            history.on_submit(command)
        engine.schedule(tick_ns, submit_tick)

    def sample_tick():
        features = history.feature_vector()
        completed = device.probe(qpair, 0)
        writes = 0
        reads = 0
        for completion in completed:
            history.on_complete(completion.command)
            if completion.is_write:
                writes += 1
            else:
                reads += 1
        rows_x.append(features)
        rows_y.append((writes, reads))
        engine.schedule(slice_ns, sample_tick)

    engine.schedule(0, submit_tick)
    engine.schedule(slice_ns, sample_tick)
    engine.run(until_ns=usec(duration_us))

    x = np.asarray(rows_x, dtype=np.float64)
    y = np.asarray(rows_y, dtype=np.float64)
    # Ridge-regularized normal equations: robust when some slices never
    # saw traffic (singular plain least squares).
    gram = x.T @ x + ridge * np.eye(x.shape[1])
    beta = np.linalg.solve(gram, x.T @ y)
    return LinearProbeModel(beta, window_us, slices)


_MODEL_CACHE = {}


def cached_probe_model(device_profile, seed=12345, **kwargs):
    """Train-once-per-profile cache used by benchmark sweeps.

    Keyed on every field of the profile: the trainer's device reads
    them all (service spread, interface costs, page size, capacity).
    """
    key = (
        tuple(getattr(device_profile, slot) for slot in DeviceProfile.__slots__),
        seed,
        tuple(sorted(kwargs.items())),
    )
    model = _MODEL_CACHE.get(key)
    if model is None:
        model = train_probe_model(seed, device_profile, **kwargs)
        _MODEL_CACHE[key] = model
    return model
