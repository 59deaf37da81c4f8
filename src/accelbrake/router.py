"""Queue discipline for an accel/brake bottleneck.

On every dequeue the router computes a target rate from the link capacity
and the queue's head-of-line sojourn, converts the ratio of target to
current dequeue rate into a marking fraction, and meters accelerate marks
through a token bucket so that the fraction is honored exactly over any
packet run.  Packets already braked stay braked: a brake from any hop on
the path survives to the receiver, so the sender reacts to the most
congested bottleneck.

When legacy traffic shares the hop, packets are split into two queues
served by deficit round-robin, and the ABC queue's capacity share is
re-derived every weight interval from a max-min allocation over the
heaviest flows seen in each queue.

``AbcRouter`` holds both queues itself and handles a packet in one frame:
``enqueue`` is the admission test, and ``on_dequeue`` serves a lone
backlogged queue, keeps the rate window and marks.  Only the round-robin
between two backlogged queues is a method of its own, ``_round_robin``.
The calls that stay are the ones that cross into another part: the Space
Saving sketch's ``record``, the capacity view, ``target_rate`` and
``accel_fraction`` (public functions), and ``MarkerState.mark``, the
metered marking whose guarantees are tested on their own.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .core import ACCEL, BRAKE, MTU_BYTES, Packet, SimTime, US_PER_S, check_fields
from .topk import SpaceSavingSketch

# The names router rows give the two queues.  Inside AbcRouter a queue is
# its index: 0 for the ABC queue, 1 for the legacy one.
ABC_QUEUE = "abc"
LEGACY_QUEUE = "legacy"


@dataclass
class AbcParams:
    """Control knobs for the target-rate computation and marking.

    ``delta_us`` sets how fast standing queue is drained (larger is
    gentler); ``target_delay_us`` is the queuing delay the controller
    tolerates before it starts subtracting capacity.  ``eta`` keeps the
    operating point slightly below the link rate so the queue can drain.
    """

    eta: float = 0.98
    delta_us: SimTime = 133_000
    target_delay_us: SimTime = 50_000
    token_limit: float = 2.0
    rate_window_us: SimTime = 20_000
    weight_interval_us: SimTime = 100_000
    demand_headroom: float = 0.10
    demand_smoothing: float = 0.25
    demand_memory: int = 10
    sketch_size: int = 10

    def validate(self) -> None:
        # Always nested in a hop or in a file's base section, so the message
        # reads under that section: "abc_params: eta must be > 0, got 0".
        check_fields(self, " ", eta=("> 0", "<= 1"), delta_us="> 0", target_delay_us=">= 0",
                     token_limit=">= 1", rate_window_us="> 0", weight_interval_us="> 0",
                     demand_headroom=">= 0", demand_smoothing=("> 0", "<= 1"),
                     demand_memory=">= 1", sketch_size=">= 1")


def target_rate(params: AbcParams, mu_bps: float, queue_delay_us: SimTime) -> float:
    """Rate the controller wants ABC traffic to enqueue at, in bits/s.

    High-water behavior: once the head-of-line delay exceeds the target
    by a full ``delta``, the raw value goes negative and is clamped to 0
    (the controller can only brake as hard as "mark everything").
    """
    # The clamps are comparisons that pick exactly what max()/min() would
    # pick: this runs on every marked dequeue, where the builtin call costs
    # more than the compare.
    excess = queue_delay_us - params.target_delay_us
    if not excess > 0:
        excess = 0
    raw = params.eta * mu_bps - (mu_bps / params.delta_us) * excess
    return raw if raw > 0.0 else 0.0


def accel_fraction(target_bps: float, dequeue_bps: float) -> float:
    """Fraction of outgoing packets to leave accelerated.

    Each accelerate adds roughly one packet per RTT at the sender while a
    brake removes one, so holding the enqueue rate at the target requires
    marking half of the target-to-current ratio.  An idle link (zero
    dequeue rate) accelerates everything.
    """
    if target_bps < 0 or dequeue_bps < 0:
        raise ValueError("rates must be non-negative")
    if dequeue_bps == 0:
        return 1.0
    fraction = 0.5 * target_bps / dequeue_bps
    return 1.0 if fraction > 1.0 else fraction


class MarkerState:
    """Token bucket that meters accelerate marks to a requested fraction.

    Every outgoing packet deposits the current fraction into the bucket;
    an accelerated packet may stay accelerated only by spending one full
    token.  Over any run of n packets at fraction f this admits at most
    n*f + token_limit accelerates, and a braked packet is never promoted,
    so the surviving accelerate fraction along a multi-hop path is the
    minimum of the per-hop fractions.
    """

    def __init__(self, token_limit: float = 2.0):
        if token_limit < 1:
            raise ValueError(f"token limit must be at least 1, got {token_limit}")
        self.token = 0.0
        self.token_limit = float(token_limit)

    def mark(self, pkt: Packet, fraction: float) -> Packet:
        if not 0 <= fraction <= 1:
            raise ValueError(f"marking fraction must be in [0, 1], got {fraction}")
        token = self.token + fraction
        if token > self.token_limit:
            token = self.token_limit
        if pkt.ecn is ACCEL:
            if token > 1:
                token -= 1
            else:
                pkt.ecn = BRAKE
        # BRAKE stays braked; NOT_ECT and ECN_SET pass through untouched.
        self.token = token
        return pkt


def water_fill(demands: list[float], capacity: float) -> list[float]:
    """Max-min fair allocation of ``capacity`` across ``demands``.

    Progressive filling: repeatedly grant every demand below the equal
    share of the remaining capacity, then split what is left evenly among
    the rest.  No entity receives more than it asked for.
    """
    if capacity < 0:
        raise ValueError(f"capacity must be non-negative, got {capacity}")
    if any(d < 0 for d in demands):
        raise ValueError("demands must be non-negative")
    alloc = [0.0] * len(demands)
    active = sorted(range(len(demands)), key=lambda i: (demands[i], i))
    remaining = capacity
    while active and remaining > 0:
        share = remaining / len(active)
        satisfied = [i for i in active if demands[i] <= share]
        if not satisfied:
            for i in active:
                alloc[i] = share
            return alloc
        for i in satisfied:
            alloc[i] = demands[i]
            remaining -= demands[i]
        active = [i for i in active if demands[i] > share]
    return alloc


class AbcRouter:
    """Dual-queue bottleneck discipline with accel/brake marking.

    Accelerated and braked packets join the ABC queue, everything else the
    legacy queue.  The two queues share one buffer of ``buffer_pkts`` and
    are served by deficit round-robin: each visit grants a queue
    ``weight * QUANTUM_BYTES`` bytes of deficit, where the ABC queue's
    weight is ``weight_abc`` (1.0 at the start) and the legacy queue's the
    rest.  The scheduler is work-conserving: a lone backlogged queue is
    always served regardless of its weight.  With both queues backlogged,
    service converges to the weight split within one packet.

    ``capacity_view`` supplies the link rate estimate mu(t) (an oracle over
    the attached link; the engine's averages over ``rate_window_us``, the
    window of the dequeue rate it is compared with).  ``fixed_fraction``
    pins the marking fraction instead of deriving it from rates, which is
    useful for controlled experiments on the marking machinery itself.
    """

    # An arrival is accepted only while its queue is shorter than this
    # multiple of the free buffer space (a dynamic threshold in the
    # shared-memory-switch tradition): a queue hogging the buffer caps
    # itself while slack remains, so it can never starve the other
    # queue's arrivals, yet all losses stay classic tail drops.
    THRESHOLD_RATIO = 2.0
    QUANTUM_BYTES = MTU_BYTES

    def __init__(self, hop_id: str, params: AbcParams, capacity_view,
                 buffer_pkts: int = 250, fixed_fraction: Optional[float] = None,
                 log_rows: bool = False):
        params.validate()
        if fixed_fraction is not None and not 0 <= fixed_fraction <= 1:
            raise ValueError(f"fixed fraction must be in [0, 1], got {fixed_fraction}")
        if buffer_pkts < 1:
            raise ValueError(f"buffer capacity must be at least 1 packet, got {buffer_pkts}")
        self.hop_id = hop_id
        self.params = params
        self.capacity_view = capacity_view
        self.fixed_fraction = fixed_fraction
        self.buffer_pkts = buffer_pkts
        self.weight_abc = 1.0
        # Every per-queue structure is indexed by queue: 0 is the ABC queue,
        # 1 the legacy one.  The queues hold (packet, enqueue time); _ptr is
        # the index of the queue the round-robin visits next.
        self._queues = (deque(), deque())
        self._deficit = [0.0, 0.0]
        self._ptr = 0
        self._fresh_visit = True
        self.marker = MarkerState(params.token_limit)
        # The ABC queue's dequeue rate over the last rate_window_us: each
        # ABC dequeue's (time, bytes) still inside the window, and their sum.
        self._rate_window_us = int(params.rate_window_us)
        self._rate_events: deque[tuple[SimTime, int]] = deque()
        self._rate_bytes = 0
        self.log_rows = log_rows
        self.rows: list[tuple] = []
        # (time, ABC queue weight): the initial weight, then one entry per
        # update_weights call.
        self.weight_log: list[tuple] = [(0, self.weight_abc)]
        self._sketches = (SpaceSavingSketch(params.sketch_size),
                          SpaceSavingSketch(params.sketch_size))
        self._last_weight_update: SimTime = 0
        # Recent per-flow rate samples, one per weight interval.  A flow's
        # demand is its *peak* over the last few intervals: a loss-cycling
        # legacy flow still wants its pre-cut rate while it recovers, and
        # averaging the dips would hand its share away for good.
        # Keyed by (queue, flow id).
        self._rate_hist: dict[tuple[int, str], deque] = {}
        self._epoch = 0
        self._shorts_ewma = [0.0, 0.0]

    def enqueue(self, pkt: Packet, now: SimTime) -> Optional[Packet]:
        """Queue a packet; returns the dropped packet on overflow, else None."""
        abc, legacy = self._queues
        ecn = pkt.ecn
        q = abc if ecn is ACCEL or ecn is BRAKE else legacy
        if len(q) >= self.THRESHOLD_RATIO * (self.buffer_pkts - len(abc) - len(legacy)):
            return pkt
        q.append((pkt, now))
        return None

    def backlog(self) -> int:
        abc, legacy = self._queues
        return len(abc) + len(legacy)

    def on_dequeue(self, now: SimTime) -> tuple[Packet, SimTime]:
        """Serve one packet: mark it if it is ABC traffic, account its bytes."""
        abc, legacy = self._queues
        if abc and legacy:
            idx, pkt, enqueued_at = self._round_robin()
        else:
            # Work conservation: serve the lone busy queue and restart the
            # round cleanly so no credit is banked across idle periods.
            deficit = self._deficit
            deficit[0] = deficit[1] = 0.0
            self._fresh_visit = True
            if abc:
                idx, q = 0, abc
            elif legacy:
                idx, q = 1, legacy
            else:
                raise IndexError("dequeue from an empty dual queue")
            self._ptr = idx ^ 1
            pkt, enqueued_at = q.popleft()
        size = pkt.size_bytes
        self._sketches[idx].record(pkt.flow_id, size)
        if idx == 0:
            sojourn_us = now - enqueued_at
            # The dequeue rate: add these bytes, then evict every entry at
            # or before now - window.  The entry just added is newer than
            # that, so the deque never runs empty here.
            events = self._rate_events
            events.append((now, size))
            total = self._rate_bytes + size
            window_us = self._rate_window_us
            cutoff = now - window_us
            while events[0][0] <= cutoff:
                total -= events.popleft()[1]
            self._rate_bytes = total
            current = total * 8 * US_PER_S / window_us
            if self.fixed_fraction is not None:
                fraction = self.fixed_fraction
                target = current = 0.0
            else:
                mu = self.capacity_view.capacity(now) * self.weight_abc
                target = target_rate(self.params, mu, sojourn_us)
                fraction = accel_fraction(target, current)
            self.marker.mark(pkt, fraction)
            if self.log_rows:
                self.rows.append((now, ABC_QUEUE, round(fraction, 6), round(target, 1),
                                  round(current, 1), sojourn_us,
                                  round(self.marker.token, 6), pkt.ecn.name))
        elif self.log_rows:
            self.rows.append((now, LEGACY_QUEUE, "", "", "", now - enqueued_at, "",
                              pkt.ecn.name))
        return pkt, enqueued_at

    def _round_robin(self) -> tuple[int, Packet, SimTime]:
        """Serve whichever of two backlogged queues deficit round-robin picks.

        Returns (queue index, packet, enqueue time).
        """
        deficit = self._deficit
        while True:
            idx = self._ptr
            if self._fresh_visit:
                weight = self.weight_abc if idx == 0 else 1.0 - self.weight_abc
                deficit[idx] += weight * self.QUANTUM_BYTES
                self._fresh_visit = False
            q = self._queues[idx]
            size = q[0][0].size_bytes
            if deficit[idx] >= size:
                deficit[idx] -= size
                pkt, enq = q.popleft()
                return idx, pkt, enq
            self._ptr ^= 1
            self._fresh_visit = True

    def update_weights(self, now: SimTime) -> float:
        """Recompute the ABC queue's capacity share from observed flow rates.

        The heaviest flows in each queue (tracked by a Space Saving sketch)
        are assumed to want a little more than they currently get; the
        remainder of each queue's bytes is treated as one aggregate of
        short flows that wants exactly what it gets.  A max-min allocation
        of the link capacity over those demands gives each queue's share.
        Every call appends ``(now, weight)`` to ``weight_log``.
        """
        interval = now - self._last_weight_update
        self._last_weight_update = now
        if interval > 0:
            self._reallocate(now, interval)
        self.weight_log.append((now, self.weight_abc))
        return self.weight_abc

    def _reallocate(self, now: SimTime, interval: SimTime) -> None:
        capacity = self.capacity_view.capacity(now)
        alpha = self.params.demand_smoothing
        hist = self._rate_hist
        epoch_bytes = [0, 0]  # per queue: its sketch's counters sum to them (see topk)
        for idx, sketch in enumerate(self._sketches):
            counts, errors = sketch.counts(), sketch.errors()
            epoch_bytes[idx] = sum(counts.values())
            for flow_id, rate in sketch.top_rates(interval):
                # A counter dominated by inherited error is a churn artifact
                # (many short flows recycled through the same slot), not a
                # long flow; its bytes belong with the short-flow aggregate.
                if errors[flow_id] > counts[flow_id] / 2:
                    continue
                hist.setdefault((idx, flow_id), deque()).append(
                    (self._epoch, rate))
        self._epoch += 1
        horizon = self._epoch - self.params.demand_memory
        line_sum = [0.0, 0.0]
        demands: list[float] = []
        owners: list[int] = []
        for key in sorted(hist):
            samples = hist[key]
            while samples and samples[0][0] < horizon:
                samples.popleft()
            peak = max((r for _, r in samples), default=0.0)
            if peak < 1e3:
                del hist[key]
                continue
            # One sighting is a short transfer passing through; a flow
            # only becomes a demand line once it has recurred.  Its demand
            # is then its peak rate over the history window, so a legacy
            # flow recovering from a loss (or briefly crowded out of the
            # sketch) keeps claiming its pre-dip share.
            if len(samples) < 2:
                continue
            idx, _flow = key
            demands.append(peak * (1.0 + self.params.demand_headroom))
            owners.append(idx)
            if samples[-1][0] == self._epoch - 1:
                line_sum[idx] += samples[-1][1]
        shorts = self._shorts_ewma
        for idx, sketch in enumerate(self._sketches):
            total = epoch_bytes[idx] * 8 * US_PER_S / interval
            agg = shorts[idx]
            residue = max(0.0, total - line_sum[idx])
            shorts[idx] = residue if agg == 0.0 else (1 - alpha) * agg + alpha * residue
            sketch.clear()
        abc_short, legacy_short = shorts
        if capacity <= 0 or (not any(d > 0 for d in demands)
                             and not (abc_short or legacy_short)):
            return
        # Short transfers want exactly what they already get, so they are
        # carved out first; the long flows' padded demands then share what
        # remains max-min fairly.
        agg = abc_short + legacy_short
        if agg > capacity:
            abc_short *= capacity / agg
            agg = capacity
        alloc = water_fill(demands, capacity - agg)
        total = sum(alloc) + agg
        abc_share = abc_short + sum(a for a, o in zip(alloc, owners) if o == 0)
        if total > 0:
            # Normalizing by the allocated total (not raw capacity) keeps
            # the weights summing to 1 when demand leaves the link
            # underloaded; under contention the two denominators agree.
            self.weight_abc = min(1.0, max(0.0, abc_share / total))
