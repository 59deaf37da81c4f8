"""Bottleneck link models: when may a queue dequeue one MTU packet.

Three capacity processes are supported:

* ``FixedLink`` -- constant rate.
* ``StepLink`` -- piecewise-constant rate given as ``(start, rate)`` steps.
* ``TraceLink`` -- an explicit, looping schedule of per-packet delivery
  opportunities loaded from a plain-text trace (one integer per line, the
  millisecond offset of one MTU-sized delivery opportunity; the loop
  period is the last timestamp).

All three answer two questions: when is the next chance to deliver one
packet, and how many bytes of delivery opportunity does a time window
contain.  The latter backs both link utilization accounting and the
in-band capacity oracle that routers consult.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Optional, Sequence

from .core import MTU_BITS, MTU_BYTES, SimTime, US_PER_MS, US_PER_S


class LinkProcess:
    """Abstract capacity process for one bottleneck hop."""

    def next_delivery(self, now: SimTime, after: bool = False) -> Optional[SimTime]:
        """Earliest time >= now at which one MTU packet may be delivered.

        With ``after=True`` the answer is strictly later than ``now``;
        schedulers use that form to chain dequeues without re-consuming
        an opportunity that fires exactly at the current instant.
        Returns None if the link never delivers again (zero rate forever).
        """
        raise NotImplementedError

    def opportunity_bytes(self, start: SimTime, end: SimTime) -> float:
        """Capacity offered during ``(start, end]``, in bytes."""
        raise NotImplementedError

    def rate_at(self, now: SimTime) -> float:
        """Nominal instantaneous rate in bits/s (long-run mean for traces)."""
        raise NotImplementedError


class FixedLink(LinkProcess):
    def __init__(self, rate_bps: float):
        if rate_bps <= 0:
            raise ValueError(f"fixed link rate must be positive, got {rate_bps}")
        self.rate_bps = rate_bps
        self._mtu_us = max(1, math.ceil(MTU_BITS * US_PER_S / rate_bps))

    def next_delivery(self, now: SimTime, after: bool = False) -> Optional[SimTime]:
        # A packet starting service now completes one serialization later.
        return now + self._mtu_us

    def opportunity_bytes(self, start: SimTime, end: SimTime) -> float:
        if end <= start:
            return 0.0
        return self.rate_bps * (end - start) / US_PER_S / 8

    def rate_at(self, now: SimTime) -> float:
        return self.rate_bps


class StepLink(LinkProcess):
    """Piecewise-constant capacity, e.g. a wireless hop switching rates.

    ``schedule`` is a sequence of ``(start_us, rate_bps)`` pairs sorted by
    start time; the first entry must start at 0.  A rate of 0 models an
    outage.
    """

    def __init__(self, schedule: Sequence[tuple[SimTime, float]]):
        if not schedule:
            raise ValueError("step schedule must not be empty")
        starts = [int(t) for t, _ in schedule]
        if starts[0] != 0:
            raise ValueError("step schedule must start at time 0")
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("step schedule start times must be strictly increasing")
        if any(r < 0 for _, r in schedule):
            raise ValueError("step schedule rates must be non-negative")
        self._starts = starts
        self._rates = [float(r) for _, r in schedule]

    def _segment(self, t: SimTime) -> int:
        return bisect_right(self._starts, t) - 1

    def rate_at(self, now: SimTime) -> float:
        return self._rates[self._segment(max(0, now))]

    def opportunity_bytes(self, start: SimTime, end: SimTime) -> float:
        if end <= start:
            return 0.0
        start = max(0, start)
        total_bits = 0.0
        i = self._segment(start)
        t = start
        while t < end:
            seg_end = self._starts[i + 1] if i + 1 < len(self._starts) else end
            upto = min(end, seg_end)
            total_bits += self._rates[i] * (upto - t)
            t = upto
            i += 1
        return total_bits / US_PER_S / 8

    def next_delivery(self, now: SimTime, after: bool = False) -> Optional[SimTime]:
        # Serialize one MTU across possibly several rate segments: find the
        # earliest completion time for 12000 bits starting at `now`.
        now = max(0, now)
        bits_left = float(MTU_BITS)
        i = self._segment(now)
        t = float(now)
        while True:
            rate = self._rates[i]
            seg_end = self._starts[i + 1] if i + 1 < len(self._starts) else None
            if rate > 0:
                finish = t + bits_left * US_PER_S / rate
                if seg_end is None or finish <= seg_end:
                    return math.ceil(finish)
            if seg_end is None:
                return None  # zero rate for the rest of time
            if rate > 0:
                bits_left -= rate * (seg_end - t) / US_PER_S
            t = float(seg_end)
            i += 1


class TraceLink(LinkProcess):
    """Explicit delivery-opportunity schedule, looped forever.

    ``offsets_ms`` lists the millisecond offset of each opportunity within
    one period; offsets are strictly increasing and the loop period equals
    the last offset.  An offset of 0 is rejected because it would coincide
    with the loop point of the previous cycle.
    """

    def __init__(self, offsets_ms: Sequence[int]):
        if not offsets_ms:
            raise ValueError("trace must contain at least one opportunity")
        offs = [int(v) for v in offsets_ms]
        if offs[0] <= 0:
            raise ValueError("trace offsets must be positive integers")
        if any(b <= a for a, b in zip(offs, offs[1:])):
            raise ValueError("trace offsets must be strictly increasing")
        self._offsets_us = [o * US_PER_MS for o in offs]
        self.period_us = offs[-1] * US_PER_MS
        self._per_period = len(offs)
        self._mean_bps = self._per_period * MTU_BITS * US_PER_S / self.period_us

    def _count_upto(self, t: SimTime) -> int:
        """Number of opportunities at times <= t (t >= 0)."""
        if t < 0:
            return 0
        cycles, rem = divmod(t, self.period_us)
        return cycles * self._per_period + bisect_right(self._offsets_us, rem)

    def next_delivery(self, now: SimTime, after: bool = False) -> Optional[SimTime]:
        now = max(0, now)
        target = now + 1 if after else now
        cycle, rem = divmod(target, self.period_us)
        i = bisect_left(self._offsets_us, rem)
        if i == len(self._offsets_us):
            cycle, i = cycle + 1, 0
        return cycle * self.period_us + self._offsets_us[i]

    def opportunity_bytes(self, start: SimTime, end: SimTime) -> float:
        if end <= start:
            return 0.0
        return (self._count_upto(end) - self._count_upto(max(-1, start))) * float(MTU_BYTES)

    def rate_at(self, now: SimTime) -> float:
        return self._mean_bps


def load_trace_file(path: str) -> TraceLink:
    """Parse a delivery-opportunity trace file into a TraceLink.

    Format: plain text, one integer per line giving the millisecond offset
    of one MTU delivery opportunity; blank lines and ``#`` comments are
    skipped.
    """
    offsets: list[int] = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                offsets.append(int(line))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: expected an integer millisecond offset, got {line!r}")
    return TraceLink(offsets)


class OracleRateView:
    """In-band view of link capacity: opportunities averaged over a window.

    ``capacity(now)`` reports the delivery opportunities seen in the last
    ``window_us`` microseconds as a rate in bits/s.  Early in a run, before
    one full window has elapsed, the average covers ``[0, now]`` instead
    and at time 0 it falls back to the nominal instantaneous rate.
    """

    def __init__(self, link: LinkProcess, window_us: SimTime = 20_000):
        if window_us <= 0:
            raise ValueError(f"oracle window must be positive, got {window_us}")
        self.link = link
        self.window_us = int(window_us)
        # A fixed link offers the same bytes in every full window, so that
        # answer is computed once, by capacity's own expression.
        self._full_window_bps = None
        if isinstance(link, FixedLink):
            self._full_window_bps = self.capacity(self.window_us)

    def capacity(self, now: SimTime) -> float:
        if self._full_window_bps is not None and now >= self.window_us:
            return self._full_window_bps
        width = min(self.window_us, now)
        if width <= 0:
            return self.link.rate_at(0)
        return self.link.opportunity_bytes(now - width, now) * 8 * US_PER_S / width
