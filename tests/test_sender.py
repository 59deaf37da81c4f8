"""Sender window dynamics: mark reactions, caps, loss handling, budgets."""

import pytest

from accelbrake.core import Ack, EcnCodepoint
from accelbrake.sender import (
    AbcSender,
    CubicSender,
    lost_ack_drift,
    steady_state_window,
)


def _ack(seq, nbytes, mark=EcnCodepoint.ACCEL, ece=False):
    return Ack("f", seq, nbytes, mark, ece=ece)


# ----------------------------------------------------------------- formulas

def test_steady_state_window_values():
    assert steady_state_window(0.0) == pytest.approx(1.0)
    assert steady_state_window(0.25) == pytest.approx(2.0)
    assert steady_state_window(0.4) == pytest.approx(5.0)


def test_steady_state_window_domain():
    with pytest.raises(ValueError):
        steady_state_window(0.5)  # no fixed point at or above one half
    with pytest.raises(ValueError):
        steady_state_window(-0.1)


def test_lost_ack_drift_scales_with_delivery():
    assert lost_ack_drift(0.8, 0.9, 48) == pytest.approx(25.92)
    assert lost_ack_drift(0.2, 0.9, 48) == pytest.approx(-25.92)
    assert lost_ack_drift(0.5, 1.0, 100) == 0.0


def test_lost_ack_drift_domain():
    with pytest.raises(ValueError):
        lost_ack_drift(1.2, 0.5, 10)
    with pytest.raises(ValueError):
        lost_ack_drift(0.5, -0.1, 10)


# -------------------------------------------------------------- basic sends

def test_start_fills_initial_window_with_accelerated_packets():
    s = AbcSender("f", initial_window=4, base_rtt_us=10_000)
    pkts = s.start(0)
    assert [p.seq for p in pkts] == [0, 1, 2, 3]
    assert all(p.ecn is EcnCodepoint.ACCEL for p in pkts)
    assert s.inflight == 4


def test_legacy_sender_marks_nothing():
    s = CubicSender("f", initial_window=2)
    assert all(p.ecn is EcnCodepoint.NOT_ECT for p in s.start(0))


def test_stopped_sender_stays_quiet():
    s = AbcSender("f", initial_window=4)
    s.stopped = True
    assert s.start(0) == []


# ------------------------------------------------------------ mark reactions

def test_accelerate_grows_window_with_increase_share():
    s = AbcSender("f", initial_window=4, base_rtt_us=10_000)
    s.start(0)
    out = s.on_ack(_ack(0, 1500), 10_000)
    # One packet worth of accelerate: +1 plus the 1/w increase share.
    assert s.w_abc == pytest.approx(4 + (1 + 1 / 4))
    assert len(out) == 2  # window grew past the 3 still in flight


def test_brake_shrinks_window():
    s = AbcSender("f", initial_window=4, base_rtt_us=10_000)
    s.start(0)
    s.on_ack(_ack(0, 1500, EcnCodepoint.BRAKE), 10_000)
    assert s.w_abc == pytest.approx(4 + (-1 + 1 / 4))


def test_disabled_increase_moves_exactly_one_packet():
    s = AbcSender("f", initial_window=4, base_rtt_us=10_000,
                  additive_increase=False)
    s.start(0)
    s.on_ack(_ack(0, 1500), 10_000)
    assert s.w_abc == pytest.approx(5.0)
    s.on_ack(_ack(1, 1500, EcnCodepoint.BRAKE), 10_100)
    assert s.w_abc == pytest.approx(4.0)


def test_window_never_drops_below_one_packet():
    s = AbcSender("f", initial_window=1, base_rtt_us=10_000,
                  additive_increase=False)
    s.start(0)
    s.on_ack(_ack(0, 1500, EcnCodepoint.BRAKE), 10_000)
    assert s.w_abc == 1.0


def test_duplicate_ack_is_ignored():
    s = AbcSender("f", initial_window=4, base_rtt_us=10_000)
    s.start(0)
    s.on_ack(_ack(1, 3000), 10_000)
    w = s.w_abc
    assert s.on_ack(_ack(1, 0), 10_050) == []
    assert s.w_abc == w


def test_byte_only_ack_still_moves_window():
    # An ACK that advances no sequence but carries newly acked bytes is
    # real feedback (sub-packet acknowledgment), not a duplicate.
    s = AbcSender("f", initial_window=4, base_rtt_us=10_000)
    s.start(0)
    s.on_ack(_ack(-1, 1500), 10_000)
    assert s.w_abc == pytest.approx(4 + (1 + 1 / 4))
    assert 0 in s.unacked  # nothing retired


# ----------------------------------------------------- loss and classic ECN

def test_sequence_hole_cuts_companion_window_only():
    s = AbcSender("f", initial_window=10, base_rtt_us=10_000)
    s.start(0)
    # Cumulative ACK to seq 2 but only one packet's bytes arrived: two holes.
    s.on_ack(_ack(2, 1500), 10_000)
    assert s.w_cubic == pytest.approx(7.0)  # multiplicative cut
    assert s.w_abc == pytest.approx(10 + (1 + 1 / 10))  # mark still applies
    assert s.inflight == 7


def test_classic_ecn_echo_cuts_companion_window():
    s = AbcSender("f", initial_window=10, base_rtt_us=10_000)
    s.start(0)
    s.on_ack(_ack(0, 1500, EcnCodepoint.BRAKE, ece=True), 10_000)
    assert s.w_cubic == pytest.approx(7.0)


# -------------------------------------------------------------- stale window

def test_window_capped_at_twice_inflight():
    s = AbcSender("f", initial_window=10, base_rtt_us=10_000,
                  additive_increase=False)
    s.start(0)
    # Everything acked at once: inflight drains to zero, so whatever the
    # marks said, the windows collapse to the staleness cap.
    out = s.on_ack(_ack(9, 15_000), 10_000)
    assert s.w_abc == 2.0
    assert len(out) == 2
    assert s.cap_violations == 0


def test_effective_window_is_minimum_of_both():
    s = AbcSender("f", initial_window=10, base_rtt_us=10_000)
    s.w_abc = 20.0
    s.cubic.cwnd = 6.0
    assert s.effective_window() == 6.0


# ------------------------------------------------------------- rtt tracking

def test_smoothed_rtt_updates_by_eighths():
    s = AbcSender("f", initial_window=4, base_rtt_us=10_000)
    s.start(0)
    s.on_ack(_ack(0, 1500), 12_000)
    assert s.srtt_us == 12_000
    s.on_ack(_ack(1, 1500), 20_000)
    assert s.srtt_us == (7 * 12_000 + 20_000) // 8
    # Above the base RTT, Cubic's RTT guard is the smoothed RTT.
    assert s.cubic.rtt_guard_us == s.srtt_us


def test_rtt_guard_floors_at_base_path():
    s = AbcSender("f", initial_window=4, base_rtt_us=10_000)
    assert s.cubic.rtt_guard_us == 10_000
    s.start(0)
    s.on_ack(_ack(0, 1500), 2_000)  # impossibly fast sample
    assert s.srtt_us == 2_000
    assert s.cubic.rtt_guard_us == 10_000


# ------------------------------------------------------------------ timeouts

def test_timeout_restarts_from_one_packet():
    s = AbcSender("f", initial_window=8, base_rtt_us=10_000)
    s.start(0)
    out = s.on_timeout(50_000)
    assert s.w_cubic == 1.0
    assert len(out) == 1
    assert s.inflight == 1
    # The staleness cap follows the collapsed flight.
    assert s.w_abc == 2.0


# ------------------------------------------------------------------- budgets

def test_budget_limits_bytes_and_finishes():
    s = CubicSender("f", initial_window=10, bytes_budget=4000)
    pkts = s.start(0)
    assert [p.size_bytes for p in pkts] == [1500, 1500, 1000]
    assert not s.done()  # still waiting on ACKs
    s.on_ack(_ack(2, 4000), 10_000)
    assert s.done()
    assert s.transmit(20_000) == []


def test_unbudgeted_sender_is_never_done():
    s = AbcSender("f", initial_window=2)
    s.start(0)
    assert not s.done()
