"""Sender-side congestion control.

An accel/brake sender keeps two windows.  The primary window moves one
packet up or down per acknowledged packet according to the echoed mark,
plus a one-packet-per-RTT additive increase that lets competing flows
converge to equal shares.  A shadow window follows standard Cubic rules
and reacts to classic ECN echoes and losses; the effective window is the
minimum of the two, so the flow never outcompetes loss-based traffic at
a legacy bottleneck.  Both windows are capped at twice the packets in
flight: feedback can at most double the send rate over one RTT, so any
larger window is stale information.

A legacy sender is the same machine without the mark-driven window.
``FlowSender`` therefore owns the Cubic window, the timeout and the one
ACK reaction, ``on_ack``, whose accel/brake step runs only for a sender
that has ``w_abc``.  ``AbcSender`` adds that window and the accelerated
initial mark; ``CubicSender`` adds nothing.  Both still bind ``on_ack``
and ``on_timeout`` in their own class bodies, because perfbench's tracer
wraps each flavor's entry points through the class ``__dict__``.

``on_ack`` handles an ACK in one frame: the mark step, the retirement of
the acknowledged prefix (with the RTT sample) and the cap check after
sending are written into it, and so is ``rtt_estimate``.  It still
calls ``transmit``, the one sending loop, which ``start`` and
``on_timeout`` share; ``_apply_cap``, the clamp that ``on_timeout``
shares too; and the Cubic window's own ``on_ack``/``on_congestion``,
which belong to the legacy module.  ``transmit`` reads the window the
way ``effective_window`` does, in its own frame.  ``rtt_estimate`` and
``effective_window`` stay as public readings, and the tests hold the
inline copies to them.
"""

from __future__ import annotations

from typing import Optional

from .core import ACCEL, BRAKE, Ack, EcnCodepoint, MTU_BYTES, Packet, SimTime
from .legacy import CubicWindow

WINDOW_FLOOR = 1.0


def steady_state_window(accel_fraction: float) -> float:
    """Fixed-point window under a constant marking fraction f < 1/2.

    Per acknowledged packet the window moves by ``2f - 1`` plus the
    additive-increase share ``1/w``; the drift cancels at w = 1/(1 - 2f).
    At f >= 1/2 the window grows without bound (no fixed point).
    """
    if not 0 <= accel_fraction < 0.5:
        raise ValueError(f"steady-state window is undefined for fraction {accel_fraction}")
    return 1.0 / (1.0 - 2.0 * accel_fraction)


def lost_ack_drift(accel_fraction: float, delivery_prob: float, window: float) -> float:
    """Expected per-RTT window change when ACKs are dropped independently.

    Each surviving ACK moves the window by +1 or -1 (ignoring additive
    increase), so with delivery probability p the expected drift over a
    window of w packets is ``(2f - 1) * p * w`` -- lost ACKs scale the
    reaction down but never flip its sign.
    """
    if not 0 <= accel_fraction <= 1:
        raise ValueError(f"fraction must be in [0, 1], got {accel_fraction}")
    if not 0 <= delivery_prob <= 1:
        raise ValueError(f"delivery probability must be in [0, 1], got {delivery_prob}")
    return (2.0 * accel_fraction - 1.0) * delivery_prob * window


class FlowSender:
    """A window-limited sender driven by its Cubic window ``w_cubic``.

    The ACK reaction (``on_ack``) and the timeout live here once, in one
    body each.  ``w_abc`` is None here; a sender that sets it gets the
    accel/brake window too: ``on_ack`` moves it by the echoed mark, the
    cap clamps it and the effective window is the smaller of the two.

    ``unacked`` maps each unacknowledged sequence number to ``(bytes,
    sent_at)``.  Its keys are always the contiguous range
    ``[next_seq - len(unacked), next_seq)``: ``transmit`` appends at
    ``next_seq``, ``on_ack`` retires a prefix and ``on_timeout`` empties
    it, so the lowest unacknowledged sequence number needs no search.
    ``inflight`` is ``len(unacked)``, and the bytes the budget has left
    are ``bytes_budget - bytes_sent``.
    """

    # The accel/brake window; None for a sender without one.
    w_abc: Optional[float] = None
    # The mark every packet leaves with.
    initial_mark: EcnCodepoint = EcnCodepoint.NOT_ECT

    def __init__(self, flow_id: str, initial_window: float = 10.0,
                 base_rtt_us: SimTime = 100_000, bytes_budget: Optional[int] = None):
        self.flow_id = flow_id
        self.base_rtt_us = base_rtt_us
        self.cubic = CubicWindow(initial_window, rtt_guard_us=base_rtt_us)
        self.next_seq = 0
        self.unacked: dict[int, tuple[int, SimTime]] = {}  # seq -> (bytes, sent_at)
        self.stopped = False
        self.bytes_budget = bytes_budget
        self.bytes_sent = 0
        self.cap_violations = 0
        self.last_progress: SimTime = 0
        self.srtt_us: Optional[SimTime] = None

    @property
    def w_cubic(self) -> float:
        return self.cubic.cwnd

    @property
    def inflight(self) -> int:
        return len(self.unacked)

    # -- interface used by the event loop -----------------------------------

    def start(self, now: SimTime) -> list[Packet]:
        self.last_progress = now
        return self.transmit(now)

    def effective_window(self) -> float:
        w = self.cubic.cwnd
        w_abc = self.w_abc
        return w_abc if w_abc is not None and w_abc <= w else w

    def on_ack(self, ack: Ack, now: SimTime) -> list[Packet]:
        """React to one ACK; returns the packets sent in response.

        In order: the accel/brake step (only with ``w_abc``), retire, the
        stale check, the Cubic reaction, the cap, ``transmit`` and the cap
        check.  Sequence holes retired below the ACK point (more bytes
        retired than newly acknowledged) count as a loss, as does an ECN
        echo.
        """
        newly = ack.bytes_newly_acked
        delta = newly / MTU_BYTES
        w = self.w_abc
        if w is not None:
            # A stale ACK acknowledges nothing new, so delta is 0 and w_abc
            # stays as it is.
            mark = ack.echo_mark
            if mark is ACCEL:
                w += delta * (1.0 + 1.0 / w) if self.additive_increase else delta
            elif mark is BRAKE:
                w += delta * (-1.0 + 1.0 / w) if self.additive_increase else -delta
            self.w_abc = w if w > WINDOW_FLOOR else WINDOW_FLOOR
        # Retire everything at or below the cumulative ACK point.  Sequence
        # holes below it are packets the receiver never saw: they are
        # retired too (there is no retransmission).
        unacked = self.unacked
        end = self.next_seq
        start = end - len(unacked)
        if ack.acked_seq < end:
            end = ack.acked_seq + 1
        retired_bytes = 0
        srtt = self.srtt_us
        if end > start:
            for seq in range(start, end):
                size, sent_at = unacked.pop(seq)
                retired_bytes += size
            sample = now - sent_at
            srtt = self.srtt_us = sample if srtt is None else (7 * srtt + sample) // 8
        elif newly == 0:
            return []  # duplicate or stale
        self.last_progress = now
        cubic = self.cubic
        # rtt_estimate(), from the smoothed RTT just updated.
        base = self.base_rtt_us
        cubic.rtt_guard_us = srtt if srtt is not None and srtt > base else base
        if ack.ece or retired_bytes > newly:
            cubic.on_congestion(now)
        else:
            cubic.on_ack(delta, now)
        self._apply_cap()
        out = self.transmit(now)
        # transmit only adds to inflight, so the cap just applied still
        # holds; a violation would mean stale state slipped through.
        inflight = len(unacked)
        limit = 2.0 * inflight if inflight > 1 else 2.0
        w = cubic.cwnd
        w_abc = self.w_abc
        if w_abc is not None and w_abc < w:
            w = w_abc
        if w > limit + 1e-9:
            self.cap_violations += 1
        return out

    def on_timeout(self, now: SimTime) -> list[Packet]:
        """Declare everything in flight lost, reset Cubic and restart the ACK clock."""
        self.cubic.on_timeout(now)
        self.unacked.clear()
        self.last_progress = now
        out = self.transmit(now)
        self._apply_cap()
        return out

    def done(self) -> bool:
        return (self.bytes_budget is not None and self.bytes_sent >= self.bytes_budget
                and not self.unacked)

    # -- internals -----------------------------------------------------------

    def transmit(self, now: SimTime) -> list[Packet]:
        out: list[Packet] = []
        if self.stopped:
            return out
        # Neither the window nor the mark changes while packets go out.
        # The window is effective_window()'s.
        window = self.cubic.cwnd
        w_abc = self.w_abc
        if w_abc is not None and w_abc < window:
            window = w_abc
        mark = self.initial_mark
        unacked = self.unacked
        seq = self.next_seq
        inflight = len(unacked)
        budget = None if self.bytes_budget is None else self.bytes_budget - self.bytes_sent
        sent = 0
        while inflight < window:
            size = MTU_BYTES
            if budget is not None:
                if budget <= 0:
                    break
                if budget < size:
                    size = budget
                budget -= size
            out.append(Packet(self.flow_id, seq, size, mark, now))
            unacked[seq] = (size, now)
            seq += 1
            inflight += 1
            sent += size
        self.next_seq = seq
        self.bytes_sent += sent
        return out

    def rtt_estimate(self) -> SimTime:
        """Smoothed round trip including queueing, floored at the base path."""
        srtt = self.srtt_us or 0
        return srtt if srtt > self.base_rtt_us else self.base_rtt_us

    def _apply_cap(self) -> None:
        """Clamp both windows into ``[WINDOW_FLOOR, 2 * max(inflight, 1)]``."""
        # Feedback is at most one RTT old, so a window beyond twice the
        # packets in flight could only have come from stale state.  This
        # runs on every ACK, where builtin max()/min() calls cost more than
        # the comparisons, which pick exactly what they would.
        inflight = len(self.unacked)
        limit = 2.0 * inflight if inflight > 1 else 2.0
        cubic = self.cubic
        w = cubic.cwnd
        if w > limit:
            w = limit
        cubic.cwnd = w if w > WINDOW_FLOOR else WINDOW_FLOOR
        w = self.w_abc
        if w is not None:
            if w > limit:
                w = limit
            self.w_abc = w if w > WINDOW_FLOOR else WINDOW_FLOOR


class AbcSender(FlowSender):
    """Dual-window sender: ``w_abc`` follows the echoed marks."""

    # Packets leave the sender accelerated; routers may demote them.
    initial_mark = EcnCodepoint.ACCEL

    def __init__(self, flow_id: str, initial_window: float = 10.0,
                 base_rtt_us: SimTime = 100_000, additive_increase: bool = True,
                 bytes_budget: Optional[int] = None):
        super().__init__(flow_id, initial_window, base_rtt_us, bytes_budget)
        self.w_abc = float(initial_window)
        self.additive_increase = additive_increase

    # Defined on the class itself: perfbench/tracer.py wraps each sender
    # flavor's on_ack and on_timeout through the class __dict__.
    on_ack = FlowSender.on_ack
    on_timeout = FlowSender.on_timeout


class CubicSender(FlowSender):
    """Loss/ECN-driven legacy sender (long flows and short transfers)."""

    # Bound on the class itself for the tracer, as in AbcSender.
    on_ack = FlowSender.on_ack
    on_timeout = FlowSender.on_timeout
