"""SessionConfig(backend=...) plumbing through the session facade.

Pins the three contracts the refactor must not bend: legacy configs
(no ``backend=``) run on the simulated substrate with zero behavior
change, unknown backend names fail fast with a typed error, and
sharded sessions take one spec for the fleet, never a per-shard list.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import (
    AsyncLsmSession,
    PATreeSession,
    SessionConfig,
    ShardedSession,
)
from repro.backend import (
    BackendSpec,
    get_default_backend,
    normalize_backend_spec,
    set_default_backend,
)
from repro.errors import BackendConfigError, ReproError
from repro.nvme.device import fast_test_profile


def payload(key):
    return (key % 2**64).to_bytes(8, "little")


def fast(**overrides):
    base = dict(seed=5, scheduler="naive", device_profile=fast_test_profile())
    base.update(overrides)
    return SessionConfig(**base)


def run_workload(session, n=64):
    for key in range(n):
        session.put(key * 7, payload(key))
    for key in range(0, n, 3):
        session.delete(key * 7)
    hits = sum(1 for key in range(n) if session.get(key * 7) is not None)
    stats = session.stats()
    return hits, stats


# ---------------------------------------------------------------------------
# legacy default: sim, bit-for-bit
# ---------------------------------------------------------------------------


class TestLegacyDefault:
    def test_config_default_backend_is_unset(self):
        assert SessionConfig().backend is None

    @pytest.mark.parametrize(
        "factory", [PATreeSession, AsyncLsmSession, ShardedSession]
    )
    def test_explicit_sim_matches_legacy_default(self, factory):
        with factory(fast()) as legacy:
            legacy_hits, legacy_stats = run_workload(legacy)
        with factory(fast(backend="sim")) as explicit:
            explicit_hits, explicit_stats = run_workload(explicit)
        assert explicit_hits == legacy_hits
        assert explicit_stats == legacy_stats

    def test_legacy_sessions_ride_the_sim_backend(self):
        with PATreeSession(fast()) as session:
            assert session.env.backend.kind == "sim"
            assert session.env.backend.wall_clock_variant is False
            assert session.env.backend.device is session.env.device
            assert session.env.backend.driver is session.env.driver


# ---------------------------------------------------------------------------
# typed failures
# ---------------------------------------------------------------------------


class TestTypedErrors:
    @pytest.mark.parametrize("name", ["flash", "sim:extra", "replay", ""])
    def test_unknown_or_malformed_names_raise(self, name):
        with pytest.raises(BackendConfigError):
            PATreeSession(fast(backend=name))

    def test_backend_config_error_is_a_repro_error(self):
        assert issubclass(BackendConfigError, ReproError)

    def test_sharded_rejects_mixed_per_shard_backends(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        with pytest.raises(BackendConfigError):
            ShardedSession(
                fast(shards=2, backend=["sim", "replay:%s" % trace])
            )

    def test_sharded_rejects_wrong_length_backend_list(self):
        with pytest.raises(BackendConfigError):
            ShardedSession(fast(shards=2, backend=["sim"]))

    def test_sharded_rejects_a_backend_list(self):
        # one spec for the fleet; a list is not a spec, however uniform
        with pytest.raises(BackendConfigError):
            ShardedSession(fast(shards=2, backend=["sim", "sim"]))


# ---------------------------------------------------------------------------
# non-sim substrates through the facade
# ---------------------------------------------------------------------------


class TestFileBackendSessions:
    def test_patree_session_on_file_backend(self, tmp_path):
        scratch = tmp_path / "scratch.dat"
        config = fast(backend="file:%s" % scratch)
        with PATreeSession(config) as session:
            hits, stats = run_workload(session, n=32)
            assert hits > 0
            assert session.env.backend.kind == "file"
            assert session.env.backend.wall_clock_variant is True
        # close() released the descriptor but kept the named file
        assert scratch.exists()

    def test_sharded_session_suffixes_explicit_file_paths(self, tmp_path):
        scratch = tmp_path / "scratch.dat"
        config = fast(shards=2, backend="file:%s" % scratch)
        with ShardedSession(config) as session:
            session.put(3, payload(3))
            paths = [backend.path for backend in session.sharded.backends]
        assert len(set(paths)) == 2
        assert all(str(scratch) in path for path in paths)


# ---------------------------------------------------------------------------
# process default (--backend retargeting)
# ---------------------------------------------------------------------------


class TestProcessDefault:
    def test_unset_config_follows_process_default(self, tmp_path):
        saved = get_default_backend()
        try:
            set_default_backend("file:%s" % (tmp_path / "scratch.dat"))
            with PATreeSession(fast()) as session:
                assert session.env.backend.kind == "file"
            with PATreeSession(fast(backend="sim")) as session:
                assert session.env.backend.kind == "sim"
        finally:
            set_default_backend(saved)

    def test_spec_normalization_roundtrip(self):
        spec = normalize_backend_spec("replay:trace.jsonl")
        assert isinstance(spec, BackendSpec)
        assert spec.kind == "replay"
        assert normalize_backend_spec(spec) == spec
