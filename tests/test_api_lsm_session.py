"""Tests for the AsyncLsmSession public facade."""

import pytest

from repro import AsyncLsmSession, ReproError
from repro.nvme.device import fast_test_profile


def payload(key):
    return (key % 2**64).to_bytes(8, "little")


def make_session(**kwargs):
    defaults = dict(seed=2, device_profile=fast_test_profile(), memtable_entries=50)
    defaults.update(kwargs)
    return AsyncLsmSession(**defaults)


class TestAsyncLsmSession:
    def test_crud_cycle(self):
        session = make_session()
        session.bulk_load([(k, payload(k)) for k in range(500)])
        assert session.get(100) == payload(100)
        assert session.get(100_000) is None
        assert session.put(100_000, payload(7)) is True
        assert session.get(100_000) == payload(7)
        assert session.delete(100_000) is True
        assert session.get(100_000) is None

    def test_range(self):
        session = make_session()
        session.bulk_load([(k * 2, payload(k)) for k in range(200)])
        results = session.scan(10, 30)
        assert [k for k, _v in results] == list(range(10, 31, 2))
        limited = session.scan(0, 10**9, limit=5)
        assert len(limited) == 5

    def test_flushes_happen_under_writes(self):
        session = make_session(memtable_entries=25)
        for key in range(150):
            session.put(key, payload(key))
        assert session.stats()["flushes"] >= 4
        assert session.get(3) == payload(3)

    def test_weak_sync(self):
        session = make_session(persistence="weak")
        session.put(1, payload(1))
        assert session.sync() >= 0
        assert session.store.wal.pending_records() == 0

    def test_batch_execute(self):
        from repro.core.ops import insert_op, search_op

        session = make_session()
        batch = [insert_op(k, payload(k)) for k in range(50)]
        batch += [search_op(k) for k in range(50)]
        done = session.execute(batch)
        hits = [op for op in done if op.kind == "search"]
        assert all(op.result == payload(op.key) for op in hits)

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ReproError):
            make_session(scheduler="wat")

    @pytest.mark.parametrize("entries", [0, -5])
    def test_non_positive_memtable_entries_rejected(self, entries):
        # 0 used to die in bulk_load with a bare ValueError from range();
        # -5 silently bulk-loaded nothing and rotated on every put
        with pytest.raises(ReproError):
            make_session(memtable_entries=entries)
