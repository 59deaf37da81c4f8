"""Receiver feedback: ACK coalescing, mark-change flushes, ECN ride-along."""

import pytest

from accelbrake.core import EcnCodepoint, Packet
from accelbrake.receiver import EchoState


def _pkt(seq, ecn=EcnCodepoint.ACCEL, size=1500):
    return Packet("f", seq, size, ecn, 0)


def test_rejects_bad_coalesce():
    with pytest.raises(ValueError):
        EchoState("f", coalesce=0)


def test_coalesces_two_packets_per_ack():
    rx = EchoState("f", coalesce=2)
    assert rx.on_packet(_pkt(0)) == []
    (ack,) = rx.on_packet(_pkt(1))
    assert ack.acked_seq == 1
    assert ack.bytes_newly_acked == 3000
    assert ack.echo_mark is EcnCodepoint.ACCEL


def test_coalesce_one_acks_every_packet():
    rx = EchoState("f", coalesce=1)
    for seq in range(3):
        acks = rx.on_packet(_pkt(seq))
        assert len(acks) == 1 and acks[0].acked_seq == seq


def test_mark_change_splits_byte_attribution():
    rx = EchoState("f", coalesce=4)
    rx.on_packet(_pkt(0))
    rx.on_packet(_pkt(1))
    first, second = rx.on_packet(_pkt(2, EcnCodepoint.BRAKE))
    # The old run is acknowledged under its own mark...
    assert first.echo_mark is EcnCodepoint.ACCEL
    assert first.acked_seq == 1
    assert first.bytes_newly_acked == 3000
    # ...and the packet that switched the run under the new one.
    assert second.echo_mark is EcnCodepoint.BRAKE
    assert second.acked_seq == 2
    assert second.bytes_newly_acked == 1500


def test_mark_change_with_empty_run_emits_single_ack():
    rx = EchoState("f", coalesce=2)
    (ack,) = rx.on_packet(_pkt(0, EcnCodepoint.BRAKE))
    assert ack.echo_mark is EcnCodepoint.BRAKE
    assert ack.bytes_newly_acked == 1500


def test_legacy_marks_do_not_disturb_the_run():
    rx = EchoState("f", coalesce=3)
    rx.on_packet(_pkt(0))
    # A non-ABC codepoint neither flushes nor switches the run.
    assert rx.on_packet(_pkt(1, EcnCodepoint.NOT_ECT)) == []
    (ack,) = rx.on_packet(_pkt(2))
    assert ack.echo_mark is EcnCodepoint.ACCEL
    assert ack.bytes_newly_acked == 4500


def test_congestion_flag_rides_next_ack_once():
    rx = EchoState("f", coalesce=2)
    rx.on_packet(_pkt(0, EcnCodepoint.ECN_SET))
    (ack,) = rx.on_packet(_pkt(1))
    assert ack.ece
    rx.on_packet(_pkt(2))
    (ack2,) = rx.on_packet(_pkt(3))
    assert not ack2.ece


def test_flush_drains_pending_and_goes_idle():
    rx = EchoState("f", coalesce=2)
    rx.on_packet(_pkt(0))
    ack = rx.flush()
    assert ack is not None
    assert ack.acked_seq == 0
    assert rx.flush() is None


def test_reordered_arrival_keeps_highest_sequence():
    rx = EchoState("f", coalesce=2)
    rx.on_packet(_pkt(5))
    (ack,) = rx.on_packet(_pkt(3))
    assert ack.acked_seq == 5
    assert ack.bytes_newly_acked == 3000


def test_byte_accounting_totals():
    # Every delivered byte is acknowledged exactly once: by an ACK the
    # packets trigger, or by the flush of the odd tail.
    rx = EchoState("f", coalesce=2)
    acks = []
    for seq in range(5):
        acks += rx.on_packet(_pkt(seq))
    acks.append(rx.flush())
    assert sum(a.bytes_newly_acked for a in acks) == 7500
    assert rx.flush() is None
