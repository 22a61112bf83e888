"""Unit tests for the PA-Tree latch table (working-thread granted)."""

import pytest

from repro.core.latch import EXCLUSIVE, LatchTable, SHARED
from repro.core.ops import search_op
from repro.errors import LatchError


def op():
    return search_op(0)


class TestGrantRules:
    def test_shared_latches_coexist(self):
        table = LatchTable()
        a, b = op(), op()
        assert table.request(a, 1, SHARED)
        assert table.request(b, 1, SHARED)
        assert table.holders(1) == (2, 0, 0)

    def test_exclusive_blocks_shared(self):
        table = LatchTable()
        a, b = op(), op()
        assert table.request(a, 1, EXCLUSIVE)
        assert not table.request(b, 1, SHARED)
        assert table.holders(1) == (0, 1, 1)

    def test_shared_blocks_exclusive(self):
        table = LatchTable()
        a, b = op(), op()
        assert table.request(a, 1, SHARED)
        assert not table.request(b, 1, EXCLUSIVE)

    def test_release_wakes_fifo(self):
        table = LatchTable()
        a, b, c = op(), op(), op()
        table.request(a, 1, EXCLUSIVE)
        table.request(b, 1, SHARED)
        table.request(c, 1, SHARED)
        woken = table.release(a, 1)
        assert woken == [b, c]
        assert table.holders(1) == (2, 0, 0)

    def test_no_barging_past_queued_writer(self):
        table = LatchTable()
        a, b, c = op(), op(), op()
        table.request(a, 1, SHARED)
        table.request(b, 1, EXCLUSIVE)  # queued
        # c's shared request must queue behind b even though w == 0
        assert not table.request(c, 1, SHARED)
        woken = table.release(a, 1)
        assert woken == [b]

    def test_writer_then_reader_drain_stops_at_conflict(self):
        table = LatchTable()
        a, b, c, d = op(), op(), op(), op()
        table.request(a, 1, EXCLUSIVE)
        table.request(b, 1, SHARED)
        table.request(c, 1, EXCLUSIVE)
        table.request(d, 1, SHARED)
        woken = table.release(a, 1)
        assert woken == [b]  # c cannot be granted while b reads; d waits behind c
        woken = table.release(b, 1)
        assert woken == [c]
        woken = table.release(c, 1)
        assert woken == [d]

    def test_waiter_behind_a_shared_holder_is_granted_and_the_entry_goes_once_idle(self):
        table = LatchTable()
        a, b = op(), op()
        assert table.request(a, 1, SHARED)
        assert not table.request(b, 1, EXCLUSIVE)
        assert table.holders(1) == (1, 0, 1)
        assert table.release(a, 1) == [b]
        assert table.holders(1) == (0, 1, 0)
        assert b.held_latches == {1: EXCLUSIVE} and b.write_latches == 1
        assert table.release(b, 1) == []
        assert not table._entries
        assert (table.grants, table.waits) == (2, 1)

    def test_different_pages_independent(self):
        table = LatchTable()
        a, b = op(), op()
        assert table.request(a, 1, EXCLUSIVE)
        assert table.request(b, 2, EXCLUSIVE)


class TestProtocolErrors:
    def test_double_latch_same_page_rejected(self):
        table = LatchTable()
        a = op()
        table.request(a, 1, SHARED)
        with pytest.raises(LatchError):
            table.request(a, 1, SHARED)

    def test_release_without_hold_rejected(self):
        table = LatchTable()
        with pytest.raises(LatchError):
            table.release(op(), 1)

    def test_unknown_mode_rejected(self):
        table = LatchTable()
        with pytest.raises(LatchError):
            table.request(op(), 1, "banana")

    def test_the_mode_check_comes_before_already_holds(self):
        table = LatchTable()
        a = op()
        table.request(a, 1, SHARED)
        with pytest.raises(LatchError, match="unknown latch mode"):
            table.request(a, 1, "banana")
        with pytest.raises(LatchError, match="already holds"):
            table.request(a, 1, EXCLUSIVE)

    def test_quiescence_check(self):
        table = LatchTable()
        a = op()
        table.request(a, 1, SHARED)
        with pytest.raises(LatchError):
            table.assert_quiescent()
        table.release(a, 1)
        table.assert_quiescent()


class TestWriteLatchTracking:
    def test_write_latch_count_for_priority(self):
        table = LatchTable()
        a = op()
        table.request(a, 1, EXCLUSIVE)
        table.request(a, 2, EXCLUSIVE)
        assert a.write_latches == 2
        table.release(a, 1)
        assert a.write_latches == 1
        table.release(a, 2)
        assert a.write_latches == 0

    def test_shared_does_not_count(self):
        table = LatchTable()
        a = op()
        table.request(a, 1, SHARED)
        assert a.write_latches == 0

    def test_entry_cleanup_when_idle(self):
        table = LatchTable()
        a = op()
        table.request(a, 1, SHARED)
        table.release(a, 1)
        assert table.holders(1) == (0, 0, 0)
        assert not table._entries
