"""Run log and the statistics derived from it.

The simulator appends one row per delivered packet (with per-hop
enqueue/dequeue stamps), one record per drop, and per-hop byte totals.
The functions here turn those into link utilization, queuing-delay
percentiles, per-flow throughput, and Jain's fairness index, and write
the CSV/summary artifacts for a scenario run.

Deliveries are stored by column, so a row costs a few machine words
instead of a record, a tuple per hop and an int object per stamp:

- ``flow_ids`` (a list of the senders' own ``str`` objects), ``seqs``,
  ``sizes``, ``send_times`` and ``deliver_times`` (``array('q')``) hold
  one entry per delivered packet, in delivery order.
- ``stamp_hops``, ``enqueue_times`` and ``dequeue_times`` hold one entry
  per hop a delivered packet crossed, row after row and in path order
  within a row.  ``stamp_hops`` indexes ``hop_ids``; row ``i``'s stamps
  are ``stamp_offsets[i]:stamp_offsets[i + 1]`` (``stamp_offsets``
  starts with 0), so rows whose paths differ stay representable.

The statistics read the columns directly.  ``MetricsLog.deliveries`` is a
read-only sequence of ``DeliveryRecord`` built from the columns one
record at a time, on access.
"""

from __future__ import annotations

import csv
import math
import os
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Optional

from .core import SimTime, US_PER_S


@dataclass(slots=True, frozen=True)
class DeliveryRecord:
    flow_id: str
    seq: int
    size_bytes: int
    send_time: SimTime
    deliver_time: SimTime
    # ((hop_id, enqueue_time, dequeue_time), ...) in path order.
    hops: tuple = ()


@dataclass(slots=True, frozen=True)
class DropRecord:
    flow_id: str
    seq: int
    hop_id: str
    time: SimTime


@dataclass(slots=True)
class HopStats:
    opportunity_bytes: float = 0.0
    dequeued_bytes: int = 0
    dequeues: int = 0
    drops: int = 0


@dataclass
class MetricsLog:
    duration_us: SimTime = 0
    seed: int = 0
    drops: list = field(default_factory=list)
    hop_stats: dict = field(default_factory=dict)
    # Optional detailed traces, filled in when a run asks for them.
    flow_samples: dict = field(default_factory=dict)    # flow -> [(t, w_abc, w_cubic, inflight, rate_bps)]
    router_samples: dict = field(default_factory=dict)  # hop -> [(t, queue, f, tr, cr, x_us, token, mark)]
    # Delivery columns; the layout is in the module docstring.
    flow_ids: list = field(default_factory=list, init=False, repr=False)
    seqs: array = field(default_factory=partial(array, "q"), init=False, repr=False)
    sizes: array = field(default_factory=partial(array, "q"), init=False, repr=False)
    send_times: array = field(default_factory=partial(array, "q"), init=False, repr=False)
    deliver_times: array = field(default_factory=partial(array, "q"), init=False, repr=False)
    stamp_hops: array = field(default_factory=partial(array, "i"), init=False, repr=False)
    enqueue_times: array = field(default_factory=partial(array, "q"), init=False, repr=False)
    dequeue_times: array = field(default_factory=partial(array, "q"), init=False, repr=False)
    stamp_offsets: array = field(default_factory=partial(array, "q", [0]), init=False,
                                 repr=False)
    hop_ids: list = field(default_factory=list, init=False, repr=False)
    _hop_index: dict = field(default_factory=dict, init=False, repr=False)

    def record_delivery(self, flow_id: str, seq: int, size_bytes: int,
                        send_time: SimTime, deliver_time: SimTime, hops) -> None:
        """Append one delivered packet.

        ``hops`` is flat: ``hop_id, enqueue_time, dequeue_time`` for each
        hop crossed, in path order (the layout of ``Packet.hop_trace``).
        """
        self.flow_ids.append(flow_id)
        self.seqs.append(seq)
        self.sizes.append(size_bytes)
        self.send_times.append(send_time)
        self.deliver_times.append(deliver_time)
        index = self._hop_index
        stamp = iter(hops)
        for hop_id, enq, deq in zip(stamp, stamp, stamp):
            hop = index.get(hop_id)
            if hop is None:
                hop = index[hop_id] = len(self.hop_ids)
                self.hop_ids.append(hop_id)
            self.stamp_hops.append(hop)
            self.enqueue_times.append(enq)
            self.dequeue_times.append(deq)
        self.stamp_offsets.append(len(self.stamp_hops))

    def record_drop(self, rec: DropRecord) -> None:
        self.drops.append(rec)
        stats = self.hop_stats.get(rec.hop_id)
        if stats is not None:
            stats.drops += 1

    @property
    def deliveries(self) -> "DeliveryView":
        """The delivered packets as ``DeliveryRecord``s, built on access."""
        return DeliveryView(self)


class DeliveryView(Sequence):
    """Read-only sequence of a log's deliveries; each record is built when read."""

    __slots__ = ("_log",)

    def __init__(self, log: MetricsLog):
        self._log = log

    def __len__(self) -> int:
        return len(self._log.seqs)

    def __getitem__(self, i: int) -> DeliveryRecord:
        # range() checks the bounds and resolves a negative index.
        return self._record(range(len(self))[i])

    def __iter__(self):
        for i in range(len(self)):
            yield self._record(i)

    def _record(self, i: int) -> DeliveryRecord:
        log = self._log
        stamps = tuple((log.hop_ids[log.stamp_hops[k]], log.enqueue_times[k],
                        log.dequeue_times[k])
                       for k in range(log.stamp_offsets[i], log.stamp_offsets[i + 1]))
        return DeliveryRecord(log.flow_ids[i], log.seqs[i], log.sizes[i],
                              log.send_times[i], log.deliver_times[i], stamps)


def utilization(log: MetricsLog, hop_id: str) -> float:
    """Bytes the hop actually sent divided by the bytes it could have sent."""
    stats = log.hop_stats.get(hop_id)
    if stats is None:
        raise KeyError(f"unknown hop {hop_id!r}")
    if stats.opportunity_bytes <= 0:
        raise ValueError(f"hop {hop_id!r} had no delivery opportunities")
    return stats.dequeued_bytes / stats.opportunity_bytes


def hop_delays_us(log: MetricsLog, hop_id: str,
                  start: SimTime = 0, end: Optional[SimTime] = None) -> list[int]:
    """Per-packet queuing delays at one hop, for packets dequeued in [start, end]."""
    hop = log._hop_index.get(hop_id)  # None matches no stamp
    return [deq - enq for h, enq, deq
            in zip(log.stamp_hops, log.enqueue_times, log.dequeue_times)
            if h == hop and deq >= start and (end is None or deq <= end)]


def delays_by_hop(log: MetricsLog) -> dict[str, list[int]]:
    """``hop_delays_us`` over the whole run for every hop in ``hop_stats``.

    One pass over the deliveries serves every hop, so a report that needs
    all hops' delays should use this rather than ``hop_delays_us`` per hop.
    """
    out: dict[str, list[int]] = {hop_id: [] for hop_id in log.hop_stats}
    by_index = [out.get(hop_id) for hop_id in log.hop_ids]
    for hop, enq, deq in zip(log.stamp_hops, log.enqueue_times, log.dequeue_times):
        delays = by_index[hop]
        if delays is not None:
            delays.append(deq - enq)
    return out


def nearest_rank(values: list, p: float):
    """Nearest-rank p-quantile of a non-empty list, which it sorts in place."""
    if not 0 < p <= 1:
        raise ValueError(f"percentile must be in (0, 1], got {p}")
    values.sort()
    return values[math.ceil(p * len(values)) - 1]


def delay_percentile(log: MetricsLog, hop_id: str, p: float,
                     start: SimTime = 0, end: Optional[SimTime] = None) -> int:
    """Nearest-rank p-quantile of queuing delay at a hop, in microseconds."""
    delays = hop_delays_us(log, hop_id, start, end)
    if not delays:
        raise ValueError(f"no delivered packets crossed hop {hop_id!r} in the window")
    return nearest_rank(delays, p)


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index: 1.0 when all shares are equal, 1/n at worst."""
    if not values:
        raise ValueError("fairness index needs at least one allocation")
    if any(v < 0 for v in values):
        raise ValueError("allocations must be non-negative")
    total = sum(values)
    if total == 0:
        raise ValueError("fairness index is undefined when all allocations are zero")
    return total * total / (len(values) * sum(v * v for v in values))


def flow_throughputs(log: MetricsLog, start: SimTime, end: SimTime,
                     flows: Optional[Iterable[str]] = None) -> dict[str, float]:
    """Delivered bits/s per flow over ``(start, end]``.

    When ``flows`` is given, every listed flow appears in the result even
    if it delivered nothing in the window.
    """
    if end <= start:
        raise ValueError("throughput window must have positive width")
    delivered: dict[str, int] = {f: 0 for f in flows} if flows else {}
    for flow_id, size, t in zip(log.flow_ids, log.sizes, log.deliver_times):
        if start < t <= end:
            delivered[flow_id] = delivered.get(flow_id, 0) + size
    return {fid: b * 8 * US_PER_S / (end - start) for fid, b in delivered.items()}


def steady_window(log: MetricsLog) -> tuple[SimTime, SimTime]:
    """The final two-thirds of the run, used for steady-state statistics."""
    return log.duration_us // 3, log.duration_us


# ---------------------------------------------------------------------------
# Output writers


def write_outputs(log: MetricsLog, out_dir: str, extras: Optional[dict] = None) -> None:
    """Write summary.txt, flows/<id>.csv and routers/<hop>.csv under out_dir.

    ``flows/`` and ``routers/`` are created only when the log holds flow or
    router samples to write into them.
    """
    os.makedirs(out_dir, exist_ok=True)
    _write_summary(log, os.path.join(out_dir, "summary.txt"), extras or {})

    flows_dir = os.path.join(out_dir, "flows")
    if log.flow_samples:
        os.makedirs(flows_dir, exist_ok=True)
    for flow_id, samples in sorted(log.flow_samples.items()):
        with open(os.path.join(flows_dir, f"{flow_id}.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["time_us", "w_abc", "w_cubic", "inflight", "send_rate_bps"])
            w.writerows(samples)

    routers_dir = os.path.join(out_dir, "routers")
    if log.router_samples:
        os.makedirs(routers_dir, exist_ok=True)
    for hop_id, samples in sorted(log.router_samples.items()):
        with open(os.path.join(routers_dir, f"{hop_id}.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["time_us", "queue", "accel_fraction", "target_rate_bps",
                        "dequeue_rate_bps", "queue_delay_us", "token", "mark"])
            w.writerows(samples)


def _write_summary(log: MetricsLog, path: str, extras: dict) -> None:
    t0, t1 = steady_window(log)
    lines = [
        f"duration_s={log.duration_us / US_PER_S:.6f}",
        f"seed={log.seed}",
        f"delivered_packets={len(log.deliveries)}",
        f"dropped_packets={len(log.drops)}",
    ]
    all_delays = delays_by_hop(log)
    for hop_id, stats in sorted(log.hop_stats.items()):
        prefix = f"hop.{hop_id}"
        lines.append(f"{prefix}.dequeued_bytes={stats.dequeued_bytes}")
        lines.append(f"{prefix}.drops={stats.drops}")
        if stats.opportunity_bytes > 0:
            lines.append(f"{prefix}.utilization={utilization(log, hop_id):.6f}")
        delays = all_delays[hop_id]
        if delays:
            lines.append(f"{prefix}.delay_p50_ms={nearest_rank(delays, 0.5) / 1000:.3f}")
            lines.append(f"{prefix}.delay_p95_ms={nearest_rank(delays, 0.95) / 1000:.3f}")
    if t1 > t0:
        for flow_id, bps in sorted(flow_throughputs(log, t0, t1).items()):
            lines.append(f"flow.{flow_id}.steady_throughput_mbps={bps / 1e6:.4f}")
    for key, value in sorted(extras.items()):
        lines.append(f"{key}={value}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
