"""Shared primitives: simulation clock units, ECN codepoints, packets and ACKs.

Simulation time is an integer count of microseconds.  Integer time keeps
event ordering exact and makes runs reproducible across platforms; all
public rate parameters are plain floats in bits per second and are
converted at the edges.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from enum import IntEnum

# Simulation timestamps are integer microseconds.
SimTime = int

US_PER_MS = 1_000
US_PER_S = 1_000_000

MTU_BYTES = 1500
MTU_BITS = MTU_BYTES * 8


_COMPARE = {">=": operator.ge, ">": operator.gt, "<=": operator.le}


def check_fields(spec, sep: str = ": ", **rules) -> None:
    """Raise ValueError for the first field of ``spec`` that breaks its rule.

    A rule is ``">= 1"`` or a tuple of them (``("> 0", "<= 1")``); a field
    left at None passes.  The message leads with the field name
    (``initial_window: must be >= 1, got 0.0``) so a caller can put the
    spec's own path in front of it.
    """
    for name, conds in rules.items():
        value = getattr(spec, name)
        for cond in (conds,) if isinstance(conds, str) else conds:
            op, bound = cond.split()
            if value is not None and not _COMPARE[op](value, float(bound)):
                raise ValueError(f"{name}{sep}must be {cond}, got {value}")


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

    ``hop_trace`` is flat: ``enqueue_time, dequeue_time`` is appended for
    each queue the packet leaves, so the pairs follow the path's hops in
    order.  It lives only until the packet is delivered, when the engine
    copies the stamps into the run log's columns
    (``MetricsLog.record_delivery``); a dropped packet's stamps are
    discarded.
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


def mtu_transmit_us(rate_bps: float) -> int:
    """Microseconds to serialize one MTU at ``rate_bps``, rounded up."""
    if rate_bps <= 0:
        raise ValueError(f"rate must be positive, got {rate_bps}")
    return max(1, math.ceil(MTU_BITS * US_PER_S / rate_bps))
