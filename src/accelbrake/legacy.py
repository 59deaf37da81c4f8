"""Legacy congestion control: Cubic windows, droptail queues, short flows.

These model the traffic an accel/brake deployment has to coexist with --
loss-based long flows and a background of small web-style transfers --
plus the plain droptail bottleneck used for comparison runs.
"""

from __future__ import annotations

import math
import random
from collections import deque
from typing import Optional

from .core import EcnCodepoint, Packet, SimTime, US_PER_S


class CubicWindow:
    """Standard Cubic congestion window.

    After a congestion event the window is cut to ``BETA`` of its peak and
    then follows the cubic curve ``C*(t - K)^3 + w_max`` in time, which
    plateaus at the old peak ``w_max`` exactly ``K`` seconds after the cut.
    Below ``ssthresh`` the window doubles per RTT (slow start).  A guard
    of one round-trip collapses bursts of congestion signals into a
    single reaction.
    """

    C = 0.4
    BETA = 0.7

    def __init__(self, initial_window: float = 10.0, rtt_guard_us: SimTime = 100_000):
        self.cwnd = float(initial_window)
        self.ssthresh = math.inf
        self.w_max = 0.0
        self.k = 0.0  # K of the curve; _set_w_max keeps it with w_max
        self.epoch_start: Optional[SimTime] = None
        self.rtt_guard_us = rtt_guard_us
        self._last_congestion: SimTime = -(10**12)

    def on_ack(self, delta_pkts: float, now: SimTime) -> None:
        """Grow the window for ``delta_pkts`` newly acknowledged packets."""
        if delta_pkts < 0:
            raise ValueError(f"acked packet count must be non-negative, got {delta_pkts}")
        if self.cwnd < self.ssthresh or self.epoch_start is None:
            self.cwnd += delta_pkts
            return
        t = (now - self.epoch_start) / US_PER_S
        w_cubic = self.C * (t - self.k) ** 3 + self.w_max
        # At small windows the cubic curve is too flat to reclaim a fair
        # share, so growth is floored at the additive Reno-style rate
        # (the standard "TCP-friendly region").
        rtts = (now - self.epoch_start) / self.rtt_guard_us
        w_est = self.w_max * self.BETA + 3 * (1 - self.BETA) / (1 + self.BETA) * rtts
        # max(1.0, w_cubic, w_est), as comparisons.
        cwnd = w_cubic if w_cubic > 1.0 else 1.0
        self.cwnd = w_est if w_est > cwnd else cwnd

    def _set_w_max(self, w_max: float) -> None:
        """Record a new peak and the K of the curve that climbs back to it."""
        self.w_max = w_max
        self.k = ((w_max * (1 - self.BETA)) / self.C) ** (1 / 3)

    def on_congestion(self, now: SimTime) -> bool:
        """Multiplicative decrease; returns False if inside the reaction guard."""
        if now - self._last_congestion < self.rtt_guard_us:
            return False
        self._last_congestion = now
        self._set_w_max(self.cwnd)
        self.cwnd = max(1.0, self.BETA * self.cwnd)
        self.ssthresh = self.cwnd
        self.epoch_start = now
        return True

    def on_timeout(self, now: SimTime) -> None:
        """Retransmission-timeout style reset: window to 1, back to slow start."""
        self._last_congestion = now
        self._set_w_max(self.cwnd)
        self.ssthresh = max(1.0, self.BETA * self.cwnd)
        self.cwnd = 1.0
        self.epoch_start = None


class DroptailRouter:
    """Single FIFO queue with tail drop and optional classic ECN marking.

    When ``ecn_threshold_pkts`` is set, ECN-capable packets (any codepoint
    other than not-ECT) arriving to a queue at or above the threshold are
    stamped "congestion experienced" instead of relying on loss.
    """

    def __init__(self, hop_id: str, buffer_pkts: int = 250,
                 ecn_threshold_pkts: Optional[int] = None):
        if buffer_pkts < 1:
            raise ValueError(f"buffer capacity must be at least 1 packet, got {buffer_pkts}")
        self.hop_id = hop_id
        self.buffer_pkts = buffer_pkts
        self.ecn_threshold_pkts = ecn_threshold_pkts
        self._queue: deque[tuple[Packet, SimTime]] = deque()

    def backlog(self) -> int:
        return len(self._queue)

    def enqueue(self, pkt: Packet, now: SimTime) -> Optional[Packet]:
        """Queue a packet; returns it back as the drop victim when full."""
        if len(self._queue) >= self.buffer_pkts:
            return pkt
        if (self.ecn_threshold_pkts is not None
                and len(self._queue) >= self.ecn_threshold_pkts
                and pkt.ecn is not EcnCodepoint.NOT_ECT):
            pkt.ecn = EcnCodepoint.ECN_SET
        self._queue.append((pkt, now))
        return None

    def on_dequeue(self, now: SimTime) -> tuple[Packet, SimTime]:
        if not self._queue:
            raise IndexError("dequeue from an empty droptail queue")
        pkt, enqueued_at = self._queue.popleft()
        return pkt, enqueued_at


def short_flow_schedule(load_bps: float, flow_bytes: int, duration_us: SimTime,
                        rng: random.Random) -> list[SimTime]:
    """Poisson arrival times for short flows sustaining ``load_bps``.

    The arrival rate is the offered load divided by the per-flow size, so
    e.g. 1 Mbit/s of 10 KB transfers yields 12.5 flows per second on
    average.
    """
    if load_bps < 0:
        raise ValueError(f"offered load must be non-negative, got {load_bps}")
    if flow_bytes <= 0:
        raise ValueError(f"flow size must be positive, got {flow_bytes}")
    if load_bps == 0:
        return []
    rate_per_us = load_bps / (flow_bytes * 8) / US_PER_S
    times: list[SimTime] = []
    t = 0.0
    while True:
        t += rng.expovariate(rate_per_us)
        if t > duration_us:
            return times
        times.append(int(t))
