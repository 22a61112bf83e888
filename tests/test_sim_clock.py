"""Unit tests for the virtual clock and time conversions."""

import pytest

from repro.sim.clock import (
    Clock,
    NS_PER_SEC,
    NS_PER_US,
    to_usec,
    usec,
)


def test_conversion_constants():
    assert NS_PER_US == 1_000
    assert NS_PER_SEC == 1_000_000_000


def test_usec_roundtrip():
    assert usec(1) == 1_000
    assert usec(1.5) == 1_500
    assert to_usec(usec(123.25)) == pytest.approx(123.25)


def test_usec_rounds_to_nearest_ns():
    assert usec(0.0004) == 0
    assert usec(0.0006) == 1


def test_clock_starts_at_zero():
    clock = Clock()
    assert clock.now == 0
    assert clock.now_usec == 0.0


def test_clock_advances():
    clock = Clock()
    clock.advance_to(500)
    assert clock.now == 500
    clock.advance_to(500)  # same instant is allowed
    assert clock.now == 500


def test_clock_rejects_backwards():
    clock = Clock(start_ns=100)
    with pytest.raises(ValueError):
        clock.advance_to(99)


def test_clock_custom_start():
    clock = Clock(start_ns=1_000)
    assert clock.now == 1_000
    assert clock.now_usec == 1.0
