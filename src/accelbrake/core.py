"""Shared primitives: simulation clock units, ECN codepoints, packets and ACKs.

Simulation time is an integer count of microseconds.  Integer time keeps
event ordering exact and makes runs reproducible across platforms; all
public rate parameters are plain floats in bits per second and are
converted at the edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Optional

# Simulation timestamps are integer microseconds.
SimTime = int

US_PER_MS = 1_000
US_PER_S = 1_000_000

MTU_BYTES = 1500
MTU_BITS = MTU_BYTES * 8


class EcnCodepoint(IntEnum):
    """Two-bit codepoint carried in the packet header.

    The two ECN header bits are reused to multiplex accelerate/brake
    feedback with classic ECN: ``01`` and ``10`` are reinterpreted as
    accelerate and brake, ``11`` stays "congestion experienced" so that
    legacy bottlenecks on the path can still signal through, and ``00``
    marks traffic that opted out entirely.
    """

    NOT_ECT = 0b00
    ACCEL = 0b01
    BRAKE = 0b10
    ECN_SET = 0b11

    @property
    def is_abc(self) -> bool:
        """True for the two codepoints owned by accel/brake feedback."""
        return self in (EcnCodepoint.ACCEL, EcnCodepoint.BRAKE)


# The codepoints as module-level names.  Looking a member up on the Enum
# class costs an attribute lookup each time, so per-packet code imports
# these and compares by identity: ``ecn is ACCEL or ecn is BRAKE`` is the
# hot-path form of ``ecn.is_abc``.
ACCEL = EcnCodepoint.ACCEL
BRAKE = EcnCodepoint.BRAKE
ECN_SET = EcnCodepoint.ECN_SET


@dataclass(slots=True)
class Packet:
    """One data segment in flight.

    ``hop_trace`` is flat: ``hop_id, enqueue_time, dequeue_time`` is
    appended for each queue the packet leaves.  It lives only until the
    packet is delivered, when the engine copies the stamps into the run
    log's columns (``MetricsLog.record_delivery``); a dropped packet's
    stamps are discarded.
    """

    flow_id: str
    seq: int
    size_bytes: int
    ecn: EcnCodepoint
    send_time: SimTime
    hop_trace: list = field(default_factory=list)


@dataclass(slots=True)
class Ack:
    """Cumulative acknowledgment flowing back to a sender.

    ``bytes_newly_acked`` counts only bytes actually delivered to the
    receiver since the previous ACK of this flow; the sender divides by
    the MTU to recover the (possibly fractional) packet count driving the
    window update.  ``echo_mark`` echoes the accel/brake codepoint of the
    covered run and ``ece`` echoes a classic ECN congestion mark.
    """

    flow_id: str
    acked_seq: int
    bytes_newly_acked: int
    echo_mark: EcnCodepoint
    ece: bool = False
    recv_time: SimTime = 0


def mtu_packets(n_bytes: int) -> int:
    """Number of MTU-sized packets needed to carry ``n_bytes``."""
    if n_bytes < 0:
        raise ValueError(f"byte count must be non-negative, got {n_bytes}")
    return math.ceil(n_bytes / MTU_BYTES)


def mtu_transmit_us(rate_bps: float) -> int:
    """Microseconds to serialize one MTU at ``rate_bps``, rounded up."""
    if rate_bps <= 0:
        raise ValueError(f"rate must be positive, got {rate_bps}")
    return max(1, math.ceil(MTU_BITS * US_PER_S / rate_bps))


def bits_per_second(n_bytes: float, interval_us: SimTime) -> float:
    """Average rate over an interval, in bits per second."""
    if interval_us <= 0:
        raise ValueError(f"interval must be positive, got {interval_us}")
    return n_bytes * 8 * US_PER_S / interval_us
