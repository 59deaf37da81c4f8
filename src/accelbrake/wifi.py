"""Link-rate estimation from frame-aggregation acknowledgments.

A wireless access point learns the achievable rate of a station from its
own transmissions: a batch of ``b`` equal-sized frames acknowledged as a
unit took ``T_IA = b*S/R + h`` since the previous acknowledgment, where
``R`` is the PHY bitrate and ``h`` lumps every per-batch overhead
(contention, preambles, the ACK itself).  Because only the ``b*S/R`` term
depends on batch size, the time a *full* batch of ``M`` frames would have
taken is ``T_IA + (M - b)*S/R``, and the achievable rate follows without
the station ever being backlogged:

    mu_hat = M*S / (T_IA + (M - b)*S/R)

Estimates are smoothed over a short window and capped at twice the
current dequeue rate -- the control loop can at most double a rate in one
round trip, so a larger estimate is not actionable anyway.

``generate_mac_trace`` synthesizes acknowledgment streams with known
ground truth for exercising the estimator.
"""

from __future__ import annotations

import csv
import math
import random
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .core import SimTime, US_PER_S


@dataclass(slots=True)
class AmpduAckEvent:
    """One block acknowledgment: ``batch_frames`` frames delivered at once.

    ``inter_ack_us`` is the time since the previous acknowledgment on the
    link; ``user`` distinguishes stations when several share the medium.
    """

    time_us: SimTime
    batch_frames: int
    frame_bits: int
    phy_rate_bps: float
    max_batch: int
    inter_ack_us: float
    user: int = 0


def instantaneous_rate(event: AmpduAckEvent) -> float:
    """Throughput of this batch alone: b*S / T_IA, in bits/s."""
    if event.inter_ack_us <= 0:
        raise ValueError("inter-ACK time must be positive")
    return event.batch_frames * event.frame_bits * US_PER_S / event.inter_ack_us

def backlogged_projection(event: AmpduAckEvent) -> float:
    """Rate a full batch would have achieved: M*S / (T_IA + (M-b)*S/R)."""
    if event.inter_ack_us <= 0:
        raise ValueError("inter-ACK time must be positive")
    if not 1 <= event.batch_frames <= event.max_batch:
        raise ValueError(
            f"batch of {event.batch_frames} outside [1, {event.max_batch}]")
    pad_us = (event.max_batch - event.batch_frames) * event.frame_bits * US_PER_S / event.phy_rate_bps
    return event.max_batch * event.frame_bits * US_PER_S / (event.inter_ack_us + pad_us)


class CapacityFilter:
    """Windowed, exponentially weighted averages of two rate series.

    Each sample carries two values taken at the same time (the estimator
    feeds it the backlogged projection and the dequeue rate), so one
    window serves both and every sample's weight is worked out once.
    Samples older than ``window_us`` are dropped; within the window the
    weight halves every ``window_us / 2`` of age, so the estimate leans on
    the freshest acknowledgments without chasing single batches.
    """

    def __init__(self, window_us: SimTime = 40_000):
        if window_us <= 0:
            raise ValueError(f"filter window must be positive, got {window_us}")
        self.window_us = int(window_us)
        self._samples: deque[tuple[float, float, float]] = deque()

    def add(self, time_us: float, first: float, second: float) -> None:
        self._samples.append((time_us, first, second))

    def value(self, now_us: float) -> Optional[tuple[float, float]]:
        """The two weighted averages at ``now_us``, or None if the window is empty."""
        cutoff = now_us - self.window_us
        samples = self._samples
        while samples and samples[0][0] < cutoff:
            samples.popleft()
        if not samples:
            return None
        half_life = self.window_us / 2.0
        num_first = num_second = den = 0.0
        for t, first, second in samples:
            w = 0.5 ** ((now_us - t) / half_life)
            num_first += w * first
            num_second += w * second
            den += w
        return num_first / den, num_second / den


@dataclass(slots=True)
class EstimatePoint:
    time_us: SimTime
    raw_bps: float       # filtered backlogged projection
    current_bps: float   # filtered dequeue rate
    capped_bps: float    # the published estimate: min(raw, 2 * current)


def _estimate_stream(events, window_us: SimTime, cap_factor: float,
                     recompute_inter_ack: bool) -> list[EstimatePoint]:
    """Filtered projection, dequeue rate and capped estimate at every event.

    Both series share one window.  Each of its samples gets one weight,
    the same ``0.5 ** (age / half_life)`` a separate filter per series
    would compute, and each average accumulates its products and the
    weights in window order from 0.0, exactly as such a filter would.  So
    the estimates are bit-identical to filtering each series on its own.
    """
    if not cap_factor > 0:
        raise ValueError(f"cap factor must be positive, got {cap_factor}")
    window = CapacityFilter(window_us)
    add, value = window.add, window.value
    prev_time: Optional[float] = None
    out: list[EstimatePoint] = []
    for ev in events:
        if recompute_inter_ack:
            if prev_time is None:
                prev_time = ev.time_us
                continue
            ev = AmpduAckEvent(ev.time_us, ev.batch_frames, ev.frame_bits,
                               ev.phy_rate_bps, ev.max_batch,
                               ev.time_us - prev_time, ev.user)
            prev_time = ev.time_us
        add(ev.time_us, backlogged_projection(ev), instantaneous_rate(ev))
        raw, current = value(ev.time_us)
        out.append(EstimatePoint(int(ev.time_us), raw, current,
                                 min(raw, cap_factor * current)))
    return out


def estimate_capacity(events: Sequence[AmpduAckEvent], window_us: SimTime = 40_000,
                      cap_factor: float = 2.0) -> list[EstimatePoint]:
    """Run the estimator over one shared acknowledgment stream."""
    return _estimate_stream(events, window_us, cap_factor, recompute_inter_ack=False)


def estimate_capacity_per_user(events: Sequence[AmpduAckEvent],
                               window_us: SimTime = 40_000,
                               cap_factor: float = 2.0) -> dict[int, list[EstimatePoint]]:
    """Per-station estimates from a shared medium.

    Each user's inter-ACK times are recomputed between that user's own
    acknowledgments, so other stations' airtime is absorbed into the
    per-batch overhead and the projection yields the rate this user would
    see if it alone were backlogged (its contended share).
    """
    by_user: dict[int, list[AmpduAckEvent]] = {}
    for ev in events:
        by_user.setdefault(ev.user, []).append(ev)
    return {u: _estimate_stream(evs, window_us, cap_factor, recompute_inter_ack=True)
            for u, evs in sorted(by_user.items())}


# ---------------------------------------------------------------------------
# Synthetic acknowledgment streams


@dataclass
class OverheadModel:
    """Shifted log-normal per-batch overhead, independent of batch size."""

    mean_us: float = 1000.0
    std_us: float = 200.0
    floor_us: float = 200.0

    def validate(self) -> None:
        if self.floor_us < 0 or self.mean_us <= self.floor_us:
            raise ValueError("overhead mean must exceed its floor")
        if self.std_us < 0:
            raise ValueError("overhead deviation must be non-negative")

    def sampler(self, rng: random.Random) -> Callable[[], float]:
        """A function drawing one overhead from ``rng`` per call.

        The log-normal's parameters are worked out here, once, rather than
        on every draw.
        """
        if self.std_us == 0:
            mean = self.mean_us
            return lambda: mean
        m = self.mean_us - self.floor_us
        sigma2 = math.log(1.0 + (self.std_us / m) ** 2)
        mu = math.log(m) - sigma2 / 2.0
        sigma = math.sqrt(sigma2)
        floor, lognormvariate = self.floor_us, rng.lognormvariate
        return lambda: floor + lognormvariate(mu, sigma)

    def sample(self, rng: random.Random) -> float:
        return self.sampler(rng)()


@dataclass
class LinkProfile:
    """Static description of one wireless link."""

    phy_rate_bps: float = 72e6
    max_batch: int = 16
    frame_bits: int = 12_000
    overhead: OverheadModel = None

    def __post_init__(self):
        if self.overhead is None:
            self.overhead = OverheadModel()
        self.overhead.validate()
        if self.phy_rate_bps <= 0 or self.max_batch < 1 or self.frame_bits <= 0:
            raise ValueError("profile must have positive rate, batch and frame size")

    def true_capacity(self, phy_rate_bps: Optional[float] = None) -> float:
        """Backlogged throughput: M*S over a full batch's expected airtime."""
        r = phy_rate_bps if phy_rate_bps is not None else self.phy_rate_bps
        batch_bits = self.max_batch * self.frame_bits
        return batch_bits * US_PER_S / (batch_bits * US_PER_S / r + self.overhead.mean_us)


def generate_mac_trace(profile: LinkProfile, offered_load_bps: float,
                       duration_s: float, seed: int = 0,
                       rate_schedule: Optional[Sequence[tuple[float, float]]] = None,
                       user: int = 0) -> list[AmpduAckEvent]:
    """Synthesize a block-ACK stream for a station offered a fluid load.

    Frames of ``frame_bits`` arrive continuously at ``offered_load_bps``;
    whenever at least one whole frame is queued the link sends
    ``min(M, floor(queue))`` of them and acknowledges the batch after its
    airtime plus one sampled overhead.  ``rate_schedule`` optionally steps
    the PHY rate over time as ``(start_s, rate_bps)`` pairs.
    """
    if offered_load_bps <= 0:
        raise ValueError(f"offered load must be positive, got {offered_load_bps}")
    if duration_s <= 0:
        raise ValueError(f"duration must be positive, got {duration_s}")
    schedule = [(0.0, profile.phy_rate_bps)] if rate_schedule is None \
        else [(float(a), float(b)) for a, b in rate_schedule]
    if schedule[0][0] != 0.0:
        raise ValueError("rate schedule must start at time 0")
    for _, r in schedule:
        if offered_load_bps > 2.0 * profile.true_capacity(r):
            raise ValueError("offered load exceeds twice the link capacity")
    starts = [s for s, _ in schedule]
    rates = [r for _, r in schedule]

    overhead = profile.overhead.sampler(random.Random(seed))
    max_batch, frame_bits = profile.max_batch, profile.frame_bits
    duration_us = duration_s * US_PER_S
    arrivals_per_us = offered_load_bps / frame_bits / US_PER_S
    backlog_cap = 50.0 * max_batch
    t = 0.0
    backlog = 0.0
    prev_ack = 0.0
    events: list[AmpduAckEvent] = []
    append = events.append
    while True:
        if backlog < 1.0:
            t += (1.0 - backlog) / arrivals_per_us
            backlog = 1.0
        phy = rates[bisect_right(starts, t / US_PER_S) - 1]
        b = min(max_batch, int(backlog))
        airtime = b * frame_bits * US_PER_S / phy + overhead()
        t += airtime
        if t > duration_us:
            return events
        backlog = min(backlog + arrivals_per_us * airtime - b, backlog_cap)
        append(AmpduAckEvent(int(t), b, frame_bits, phy, max_batch, t - prev_ack, user))
        prev_ack = t


def merge_user_streams(*streams: Sequence[AmpduAckEvent]) -> list[AmpduAckEvent]:
    """Interleave per-user streams by time, recomputing shared inter-ACK gaps."""
    merged = sorted((ev for s in streams for ev in s), key=lambda e: (e.time_us, e.user))
    out = []
    prev = 0.0
    for ev in merged:
        out.append(AmpduAckEvent(ev.time_us, ev.batch_frames, ev.frame_bits,
                                 ev.phy_rate_bps, ev.max_batch, ev.time_us - prev, ev.user))
        prev = ev.time_us
    return out


# ---------------------------------------------------------------------------
# Trace and estimate files

MAC_TRACE_COLUMNS = ["time_us", "b", "S_bits", "R_bps", "M", "T_IA_us"]


def write_mac_trace(events: Sequence[AmpduAckEvent], path: str) -> None:
    multi_user = len({ev.user for ev in events}) > 1
    header = MAC_TRACE_COLUMNS + (["user"] if multi_user else [])
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for ev in events:
            row = [ev.time_us, ev.batch_frames, ev.frame_bits,
                   f"{ev.phy_rate_bps:.0f}", ev.max_batch, f"{ev.inter_ack_us:.3f}"]
            if multi_user:
                row.append(ev.user)
            w.writerow(row)


def read_mac_trace(path: str) -> list[AmpduAckEvent]:
    events: list[AmpduAckEvent] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header[:6]] != MAC_TRACE_COLUMNS:
            raise ValueError(f"{path}: expected header {','.join(MAC_TRACE_COLUMNS)}")
        for lineno, row in enumerate(reader, 2):
            if not row:
                continue
            try:
                events.append(AmpduAckEvent(
                    int(row[0]), int(row[1]), int(row[2]), float(row[3]),
                    int(row[4]), float(row[5]), int(row[6]) if len(row) > 6 else 0))
            except (ValueError, IndexError) as exc:
                raise ValueError(f"{path}:{lineno}: malformed trace row: {exc}") from exc
    return events


def write_estimates(points: Sequence[EstimatePoint], path: str) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["time_us", "mu_hat_bps"])
        for p in points:
            w.writerow([p.time_us, f"{p.capped_bps:.1f}"])


class WifiReplayView:
    """Capacity view for the simulator backed by a series of estimates.

    Steps through ``(time_us, rate_bps)`` points; before the first point
    the first rate applies.  Lets a bottleneck hop run its control loop
    off replayed wireless estimates instead of the link-process oracle.
    """

    def __init__(self, points: Sequence[tuple[SimTime, float]]):
        if not points:
            raise ValueError("replay view needs at least one estimate")
        self._times = [int(t) for t, _ in points]
        self._rates = [float(r) for _, r in points]
        if any(b <= a for a, b in zip(self._times, self._times[1:])):
            raise ValueError("estimate times must be strictly increasing")

    def capacity(self, now: SimTime) -> float:
        i = bisect_right(self._times, now) - 1
        return self._rates[max(0, i)]
