"""Pluggable I/O backends behind one contract.

The device/driver boundary of the reproduction, carved out so the same
tree, workers, shards, sessions and bench exhibits run on three
substrates:

=========  =====================================  ===================
kind       substrate                              determinism
=========  =====================================  ===================
``sim``    event-driven NVMe model (the paper's   byte-identical
           calibrated device; the default)        artifacts
``file``   real ``os.pread``/``os.pwrite`` on a   wall-clock variant
           scratch file, syscall-timed            (quantized)
``replay``  recorded per-command service times    byte-identical
           from a JSONL trace                     artifacts
=========  =====================================  ===================

All three run the same device core (``repro.nvme.device.NvmeDevice``)
and differ only in the substrate underneath it — where service times
come from and where media bytes live (``repro.nvme.substrate``).
Construction goes through :func:`make_backend`; patlint PA502 flags
``repro.nvme.device`` / ``repro.nvme.driver`` imports anywhere else in
``src/``.  A *backend spec* is any of:

* ``None`` — the process default (``"sim"`` unless overridden with
  :func:`set_default_backend`, e.g. by ``repro.bench --backend``);
* a string: ``"sim"``, ``"file"``, ``"file:/path/scratch.dat"``,
  ``"replay:/path/trace.jsonl"``;
* a ``dict`` with a ``"kind"`` key plus keyword overrides;
* an already-built :class:`IoBackend` (adopted as-is; its engine must
  match; ``ShardedPaTree`` shares it among all its shards).

``python -m repro.backend.calibrate`` records a FileBackend trace,
fits the simulator's service-time/channel parameters from it, and
reports sim-vs-real residuals — see ``repro.backend.calibrate``.
"""

from repro.backend.base import IoBackend, SimNvmeBackend, as_backend
from repro.backend.file import FileBackend, file_backend_profile
from repro.backend.replay import TraceReplayBackend, profile_from_trace
from repro.backend.trace_io import IoTrace, TraceWriter, read_trace
from repro.errors import BackendConfigError

# Device/driver knobs re-exported as the public face of the boundary:
# everything outside this package takes profiles and retry policies
# from here (patlint PA502 flags repro.nvme.device / repro.nvme.driver
# imports anywhere else in src/).
from repro.nvme.device import DeviceProfile, fast_test_profile, i3_nvme_profile
from repro.nvme.driver import RetryPolicy

BACKEND_KINDS = ("sim", "file", "replay")

_DEFAULT_SPEC = "sim"


def set_default_backend(spec):
    """Set the process-wide default backend spec (``None`` resets).

    The default is consulted whenever a config leaves ``backend``
    unset, which is how ``repro.bench --backend file`` retargets every
    exhibit without threading a parameter through each one.  Returns
    the previous default so callers can restore it.
    """
    global _DEFAULT_SPEC
    previous = _DEFAULT_SPEC
    _DEFAULT_SPEC = "sim" if spec is None else spec
    return previous


def get_default_backend():
    return _DEFAULT_SPEC


class BackendSpec:
    """Parsed backend spec: kind plus constructor keyword overrides."""

    __slots__ = ("kind", "options")

    def __init__(self, kind, **options):
        if kind not in BACKEND_KINDS:
            raise BackendConfigError(
                "unknown backend %r (expected one of %s)"
                % (kind, ", ".join(BACKEND_KINDS))
            )
        self.kind = kind
        self.options = options

    def __repr__(self):
        return "BackendSpec(%r, %r)" % (self.kind, self.options)

    def __eq__(self, other):
        return (
            isinstance(other, BackendSpec)
            and self.kind == other.kind
            and self.options == other.options
        )


def normalize_backend_spec(spec):
    """Normalize any accepted spec spelling to a :class:`BackendSpec`.

    Already-built :class:`IoBackend` instances pass through unchanged
    (the factory adopts them); everything else becomes a
    :class:`BackendSpec` or raises
    :class:`~repro.errors.BackendConfigError`.
    """
    if spec is None:
        spec = _DEFAULT_SPEC
    if isinstance(spec, (IoBackend, BackendSpec)):
        return spec
    if isinstance(spec, str):
        kind, _, arg = spec.partition(":")
        kind = kind.strip()
        if kind == "sim":
            if arg:
                raise BackendConfigError(
                    "the sim backend takes no spec argument (%r)" % (spec,)
                )
            return BackendSpec("sim")
        if kind == "file":
            return BackendSpec("file", path=arg or None)
        if kind == "replay":
            if not arg:
                raise BackendConfigError(
                    "the replay backend needs a trace path: 'replay:<path>'"
                )
            return BackendSpec("replay", trace=arg)
        raise BackendConfigError(
            "unknown backend %r (expected one of %s)"
            % (kind or spec, ", ".join(BACKEND_KINDS))
        )
    if isinstance(spec, dict):
        options = dict(spec)
        kind = options.pop("kind", None)
        if kind is None:
            raise BackendConfigError(
                "backend dict spec needs a 'kind' key: %r" % (spec,)
            )
        return BackendSpec(kind, **options)
    raise BackendConfigError(
        "backend spec must be None, a string, dict, BackendSpec or "
        "IoBackend, not %r" % (spec,)
    )


def make_backend(spec=None, *, engine, profile=None, rng_name="nvme",
                 faults=None, retry=None):
    """Build (or adopt) an :class:`IoBackend` from a spec.

    ``profile`` / ``rng_name`` / ``faults`` / ``retry`` mirror the
    historical device/driver constructor arguments; spec-carried
    options (a file path, a trace path, a quantum) win over them.
    """
    spec = normalize_backend_spec(spec)
    if isinstance(spec, IoBackend):
        if spec.engine is not engine:
            raise BackendConfigError(
                "adopted backend is bound to a different engine"
            )
        return spec
    options = dict(spec.options)
    if spec.kind == "sim":
        return SimNvmeBackend(
            engine, profile, rng_name=rng_name, faults=faults, retry=retry,
            **options,
        )
    if spec.kind == "file":
        return FileBackend(
            engine, profile=profile, rng_name=rng_name, faults=faults,
            retry=retry, **options,
        )
    # normalize_backend_spec guarantees the kind set; "replay" remains
    trace = options.pop("trace", None)
    return TraceReplayBackend(
        engine, trace, profile=profile, rng_name=rng_name, faults=faults,
        retry=retry, **options,
    )


__all__ = [
    "BACKEND_KINDS",
    "BackendConfigError",
    "BackendSpec",
    "DeviceProfile",
    "FileBackend",
    "IoBackend",
    "IoTrace",
    "RetryPolicy",
    "SimNvmeBackend",
    "TraceReplayBackend",
    "TraceWriter",
    "as_backend",
    "fast_test_profile",
    "file_backend_profile",
    "get_default_backend",
    "i3_nvme_profile",
    "make_backend",
    "normalize_backend_spec",
    "profile_from_trace",
    "read_trace",
    "set_default_backend",
]
