"""The linear-regression completion estimator (paper §IV-A).

The model maps the recent-submission feature vector ``T = w|r`` to the
expected number of completed (but not yet detected) write and read
I/Os, ``(w0, r0)``.  The working thread probes the NVMe interface only
when the model predicts at least one completion, which is the paper's
workload-aware probing strategy.

Training is offline against the device model: a synthetic driver
submits I/O with piecewise-random intensity and write ratio, probes
once per slice width, and records (features before probe, detected
completions) pairs; ``beta`` is the ridge least-squares solution (the
paper trains the same model class with pandas).  The features are small
integer counts, so the normal equations are summed exactly in python
ints and solved by one fixed-order elimination: the fitted doubles are
the same on every host and CPython, with no third-party float library.
"""

import inspect

from repro.backend import DeviceProfile, make_backend
from repro.sched.history import DEFAULT_SLICES, DEFAULT_WINDOW_US, IoHistory
from repro.sim.clock import usec
from repro.sim.engine import Engine


class LinearProbeModel:
    """``(w0, r0) = T @ beta``; ``beta`` is ``2n`` rows ``(w, r)``, and
    ``weights`` the same rows as the ints ``beta * scale``: a double is a
    dyadic rational, and ``scale`` is the largest denominator."""

    def __init__(self, beta, window_us=DEFAULT_WINDOW_US, slices=DEFAULT_SLICES):
        beta = tuple(tuple(float(value) for value in row) for row in beta)
        shape = (len(beta), len(beta[0]) if beta else 0)
        if shape != (2 * slices, 2) or any(len(row) != 2 for row in beta):
            raise ValueError(
                "beta shape %r, expected %r" % (shape, (2 * slices, 2))
            )
        self.beta = beta
        self.window_us = window_us
        self.slices = slices
        ratios = [value.as_integer_ratio() for row in beta for value in row]
        self.scale = scale = max(denominator for _, denominator in ratios)
        ints = [numerator * (scale // denominator) for numerator, denominator in ratios]
        self.weights = list(zip(ints[0::2], ints[1::2]))

    def predicts_completion(self, features):
        """At least one write or read completion predicted waiting for
        int counts ``features``, exactly: ``IoHistory``'s rule."""
        w0 = sum(count * w for count, (w, _) in zip(features, self.weights))
        r0 = sum(count * r for count, (_, r) in zip(features, self.weights))
        return w0 >= self.scale or r0 >= self.scale


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
        # most ticks submit nothing and nothing else is due before the
        # next one: take those in place, as the kernel allows
        while True:
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
            if not engine.advance(tick_ns):
                engine.schedule(tick_ns, submit_tick)
                return

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

    # Ridge-regularized normal equations: robust when some slices never
    # saw traffic (singular plain least squares).
    gram, rhs = normal_equations(rows_x, rows_y, 2 * slices, ridge)
    return LinearProbeModel(solve(gram, rhs), window_us, slices)


def normal_equations(rows_x, rows_y, size, ridge):
    """``(XᵀX + ridge·I, Xᵀy)`` as row lists of floats.

    Every feature and target is a non-negative int count, so both are
    summed exactly in python ints, whatever the order.  Each column is
    split into bit planes, one int per bit of the counts with one bit per
    sample, and a product of two columns is the popcount of each pair of
    planes ANDed, shifted by the bits' weights: a few hundred operations
    on ints as wide as the sample count instead of a loop per sample.
    """
    columns = _bit_planes(rows_x, size)
    targets = _bit_planes(rows_y, 2)
    gram = [[0.0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            gram[i][j] = gram[j][i] = float(_dot(columns[i], columns[j]))
        gram[i][i] += ridge
    rhs = [[float(_dot(column, target)) for target in targets] for column in columns]
    return gram, rhs


def _bit_planes(rows, size):
    """Per column, ``(weight, plane)`` for each non-zero bit plane: bit
    ``s`` of ``plane`` is bit ``weight`` of row ``s``'s entry there."""
    try:
        matrix = b"".join(map(bytes, rows))
        width = 1
    except ValueError:  # a count above 255: little-endian bytes per entry
        width = (max(map(max, rows)).bit_length() + 7) // 8
        matrix = b"".join(
            value.to_bytes(width, "little") for row in rows for value in row
        )
    stride = size * width
    columns = []
    for column in range(size):
        planes = []
        for lane in range(width):
            entries = matrix[column * width + lane::stride]
            for bit, digits in enumerate(_BINARY_DIGIT):
                text = entries.translate(digits)
                if b"1" in text:
                    planes.append((8 * lane + bit, int(text, 2)))
        columns.append(planes)
    return columns


# per bit: byte -> b"1" where that bit is set, else b"0" (for int(_, 2))
_BINARY_DIGIT = [
    bytes(0x31 if value >> bit & 1 else 0x30 for value in range(256))
    for bit in range(8)
]


def _dot(planes, others):
    return sum(
        _popcount(plane & other) << (bit + other_bit)
        for bit, plane in planes
        for other_bit, other in others
    )


_popcount = getattr(int, "bit_count", lambda value: bin(value).count("1"))


def solve(matrix, rhs):
    """Solve ``matrix @ beta = rhs`` for a square ``matrix`` and a
    two-column ``rhs``: Gaussian elimination with partial pivoting (the
    first largest pivot wins), then back substitution, in one fixed
    order.  Returns the rows of ``beta`` as ``(w, r)`` pairs."""
    size = len(matrix)
    rows = [list(row) + list(pair) for row, pair in zip(matrix, rhs)]
    for col in range(size):
        pivot = max(range(col, size), key=lambda index: abs(rows[index][col]))
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col]
        lead = head[col]
        tail = head[col + 1:]
        for index in range(col + 1, size):
            row = rows[index]
            factor = row[col] / lead
            if factor:
                row[col + 1:] = [
                    value - factor * top for value, top in zip(row[col + 1:], tail)
                ]
    beta = [None] * size
    for col in range(size - 1, -1, -1):
        row = rows[col]
        w = row[size]
        r = row[size + 1]
        for other in range(col + 1, size):
            coefficient = row[other]
            if coefficient:
                w -= coefficient * beta[other][0]
                r -= coefficient * beta[other][1]
        beta[col] = (w / row[col], r / row[col])
    return beta


_MODEL_CACHE = {}
_TRAINER_SIGNATURE = inspect.signature(train_probe_model)


def probe_model_key(device_profile, seed=12345, **kwargs):
    """The memo key of ``train_probe_model(seed, device_profile, **kwargs)``.

    Every field of the profile (the trainer's device reads them all:
    service spread, interface costs, page size, capacity), the seed and
    every training argument, with the defaults bound: a default spelled
    out names the same model as one left out.
    """
    bound = _TRAINER_SIGNATURE.bind(seed, device_profile, **kwargs)
    bound.apply_defaults()
    arguments = dict(bound.arguments)
    del arguments["engine_seed"], arguments["device_profile"]
    return (
        tuple(getattr(device_profile, slot) for slot in DeviceProfile.__slots__),
        seed,
        tuple(sorted(arguments.items())),
    )


def cached_probe_model(device_profile, seed=12345, **kwargs):
    """Train-once memo of :func:`train_probe_model`, keyed by
    :func:`probe_model_key`.

    Serves a model this process already holds, else one trained offline
    (``repro.sched.trained_models``, written by ``python -m
    tools.train_probe_models``; ``tests/test_sched.py`` retrains each
    and requires it equal), else trains it now.
    """
    key = probe_model_key(device_profile, seed, **kwargs)
    model = _MODEL_CACHE.get(key)
    if model is None:
        from repro.sched.trained_models import TRAINED

        trained = TRAINED.get(key)
        if trained is None:
            model = train_probe_model(seed, device_profile, **kwargs)
        else:
            model = LinearProbeModel(*trained)
        _MODEL_CACHE[key] = model
    return model
