"""Unit checks for shared types and time/rate arithmetic."""

import pytest

from accelbrake.core import (
    ACCEL,
    BRAKE,
    ECN_SET,
    MTU_BITS,
    MTU_BYTES,
    EcnCodepoint,
    mtu_transmit_us,
)


def test_mtu_constants_agree():
    assert MTU_BITS == MTU_BYTES * 8


def test_mtu_transmit_time_exact_rates():
    # 12 Mbit/s moves one 12000-bit MTU in exactly 1 ms.
    assert mtu_transmit_us(12e6) == 1000
    assert mtu_transmit_us(24e6) == 500
    assert mtu_transmit_us(96e6) == 125


def test_mtu_transmit_time_floors_at_one_microsecond():
    assert mtu_transmit_us(1e12) == 1


def test_mtu_transmit_time_rounds_up():
    # 13 Mbit/s -> 923.07... us, must not under-serialize.
    assert mtu_transmit_us(13e6) == 924


def test_mtu_transmit_time_rejects_nonpositive_rate():
    with pytest.raises(ValueError):
        mtu_transmit_us(0)
    with pytest.raises(ValueError):
        mtu_transmit_us(-5)


def test_codepoint_classes():
    assert EcnCodepoint.ACCEL.is_abc
    assert EcnCodepoint.BRAKE.is_abc
    assert not EcnCodepoint.NOT_ECT.is_abc
    assert not EcnCodepoint.ECN_SET.is_abc


def test_codepoint_aliases_match_is_abc():
    # The per-packet paths test ``ecn is ACCEL or ecn is BRAKE``.
    assert (ACCEL, BRAKE, ECN_SET) == (
        EcnCodepoint.ACCEL, EcnCodepoint.BRAKE, EcnCodepoint.ECN_SET)
    for cp in EcnCodepoint:
        assert (cp is ACCEL or cp is BRAKE) == cp.is_abc
