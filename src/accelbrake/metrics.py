"""Run log and the statistics derived from it.

The simulator appends one row per delivered packet (with per-hop
enqueue/dequeue stamps), one record per drop, and per-hop byte totals.
The functions here turn those into link utilization, queuing-delay
percentiles, per-flow throughput and Jain's fairness index, gather a run's
figures in ``report``, digest its packet timeline in ``timeline_digest``
(``first_divergence`` finds where two timelines part), and write the
CSV/summary artifacts for a run.

Deliveries are stored by column, each value in the narrowest unsigned
type its range allows, so a row costs 36 bytes at one hop and 44 at two
instead of a record, a tuple per hop and an int object per stamp:

- ``flow_ids`` is a list of the senders' own ``str`` objects (8 bytes a
  row), ``seqs`` an ``array('Q')`` (nothing bounds a seq below 2**32) and
  ``sizes`` an ``array('I')`` (a size is at most the MTU).
- ``send_times`` and ``deliver_times``, and each hop's ``enqueue_times``
  and ``dequeue_times`` in its ``HopStats``, hold stamps.  A run stamps
  nothing after its duration, so they are ``array('I')`` when
  ``duration_us < 2**32`` (71.6 simulated minutes) and ``array('Q')``
  otherwise.  ``MetricsLog`` makes that choice once and builds every
  hop's columns in ``add_hop``; a ``HopStats()`` built alone has 4-byte
  columns.
- Every column holds one entry per delivered packet, in delivery order.
  Paths are single: every delivered packet crossed every hop, in the
  order of ``hop_stats`` (the path order, filled in before the first
  delivery), so row ``i``'s stamp at a hop is entry ``i`` of its columns.
  A value its column cannot hold raises ``OverflowError`` and leaves the
  log as it was.

The statistics read the columns directly.  ``MetricsLog.deliveries`` is a
read-only sequence of ``DeliveryRecord`` built from the columns one
record at a time, on access.

Delay percentiles are taken from a histogram ``{delay_us: count}`` of
one hop's stamps, counted by ``collections.Counter`` straight from the
columns, so a report holds one entry per distinct delay instead of an int
object per stamp.  ``nearest_rank`` walks the histogram's sorted keys to
the rank a sort of every delay would give.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
from array import array
from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import InitVar, dataclass, field
from functools import partial
from itertools import zip_longest
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
    """One hop's byte totals and the queue stamps of its deliveries.

    ``enqueue_times[i]`` and ``dequeue_times[i]`` are when the log's
    ``i``-th delivered packet entered and left this hop's queue.  Its
    drops are counted from ``MetricsLog.drops``.
    """

    opportunity_bytes: float = 0.0
    dequeued_bytes: int = 0
    # The stamps' typecode; ``MetricsLog.add_hop`` passes the log's.
    stamp_type: InitVar[str] = "I"
    enqueue_times: array = field(init=False, repr=False)
    dequeue_times: array = field(init=False, repr=False)

    def __post_init__(self, stamp_type: str):
        self.enqueue_times = array(stamp_type)
        self.dequeue_times = array(stamp_type)


@dataclass
class MetricsLog:
    duration_us: SimTime = 0
    seed: int = 0
    drops: list = field(default_factory=list)
    hop_stats: dict = field(default_factory=dict)  # hop -> HopStats, in path order
    # Optional detailed traces, filled in when a run asks for them.
    flow_samples: dict = field(default_factory=dict)    # flow -> [(t, w_abc, w_cubic, inflight, rate_bps)]
    router_samples: dict = field(default_factory=dict)  # hop -> [(t, queue, f, tr, cr, x_us, token, mark)]
    # Delivery columns; the layout is in the module docstring.
    flow_ids: list = field(default_factory=list, init=False, repr=False)
    seqs: array = field(default_factory=partial(array, "Q"), init=False, repr=False)
    sizes: array = field(default_factory=partial(array, "I"), init=False, repr=False)
    send_times: array = field(init=False, repr=False)
    deliver_times: array = field(init=False, repr=False)

    def __post_init__(self):
        # Every stamp of a run is at most its duration.
        self._stamp_type = "I" if self.duration_us < 1 << 32 else "Q"
        self.send_times = array(self._stamp_type)
        self.deliver_times = array(self._stamp_type)
        # Every row column's append, bound once: a delivery then looks up
        # one attribute instead of five.  The columns are never replaced.
        self._appends = (self.flow_ids.append, self.seqs.append, self.sizes.append,
                         self.send_times.append, self.deliver_times.append)

    def add_hop(self, hop_id: str) -> HopStats:
        """Add the next hop of the path, with stamp columns as wide as the log's."""
        self.hop_stats[hop_id] = stats = HopStats(stamp_type=self._stamp_type)
        return stats

    def record_delivery(self, flow_id: str, seq: int, size_bytes: int,
                        send_time: SimTime, deliver_time: SimTime, hops) -> None:
        """Append one delivered packet.

        ``hops`` is flat: ``enqueue_time, dequeue_time`` for every hop of
        ``hop_stats``, in path order (the layout of ``Packet.hop_trace``).
        Any other number of stamps raises ValueError, a value its column
        cannot hold (a negative one, or a stamp past the log's width)
        raises OverflowError, and either way nothing is appended.
        """
        path = self.hop_stats.values()
        if len(hops) != 2 * len(path):
            raise ValueError(f"a delivery needs 2 stamps for each of {len(path)} hops, "
                             f"got {len(hops)}")
        add_flow, add_seq, add_size, add_send, add_deliver = self._appends
        try:
            add_flow(flow_id)
            add_seq(seq)
            add_size(size_bytes)
            add_send(send_time)
            add_deliver(deliver_time)
            k = 0
            for stats in path:
                stats.enqueue_times.append(hops[k])
                stats.dequeue_times.append(hops[k + 1])
                k += 2
        except BaseException:
            # The append that raised left its column, and the ones after
            # it, at the row count from before the call: cut back to it.
            columns = [self.flow_ids, self.seqs, self.sizes, self.send_times,
                       self.deliver_times]
            for stats in path:
                columns += (stats.enqueue_times, stats.dequeue_times)
            rows = min(map(len, columns))
            for column in columns:
                del column[rows:]
            raise

    def record_drop(self, rec: DropRecord) -> None:
        self.drops.append(rec)

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
        stamps = tuple((hop_id, stats.enqueue_times[i], stats.dequeue_times[i])
                       for hop_id, stats in log.hop_stats.items())
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


def _delays(log: MetricsLog, hop_id: str, start: SimTime, end: Optional[SimTime]):
    """Iterator over the queuing delays at one hop, for stamps dequeued in [start, end]."""
    stats = log.hop_stats.get(hop_id, HopStats())  # an unknown hop has no stamps
    return (deq - enq for enq, deq in zip(stats.enqueue_times, stats.dequeue_times)
            if deq >= start and (end is None or deq <= end))


def hop_delays_us(log: MetricsLog, hop_id: str,
                  start: SimTime = 0, end: Optional[SimTime] = None) -> list[int]:
    """Per-packet queuing delays at one hop, for packets dequeued in [start, end]."""
    return list(_delays(log, hop_id, start, end))


def nearest_rank(counts: Mapping, p: float):
    """Nearest-rank p-quantile of a non-empty histogram ``{value: count}``.

    With ``n`` values counted, this is the ``ceil(p * n)``-th smallest of
    them, the element a sorted list of every value holds at that rank.
    """
    if not 0 < p <= 1:
        raise ValueError(f"percentile must be in (0, 1], got {p}")
    rank = math.ceil(p * sum(counts.values()))
    seen = 0
    for value in sorted(counts):
        seen += counts[value]
        if seen >= rank:
            return value
    raise ValueError("percentile of an empty histogram")


def delay_percentile(log: MetricsLog, hop_id: str, p: float,
                     start: SimTime = 0, end: Optional[SimTime] = None) -> int:
    """Nearest-rank p-quantile of queuing delay at a hop, in microseconds."""
    counts = Counter(_delays(log, hop_id, start, end))
    if not counts:
        raise ValueError(f"no delivered packets crossed hop {hop_id!r} in the window")
    return nearest_rank(counts, p)


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


def report(log: MetricsLog) -> dict:
    """The run's figures, which summary.txt and the CLI's stdout both render.

    ``hops`` is in ``hop_stats`` order; a hop's ``utilization`` is None when
    it had no delivery opportunities, its whole-run delay percentiles None
    when no delivered packet crossed it.  ``flows`` holds the steady-window
    bits/s of each flow that delivered in the window (none without one).
    """
    start, end = steady_window(log)
    flows = flow_throughputs(log, start, end) if end > start else {}
    delays = {hop_id: Counter(_delays(log, hop_id, 0, None)) for hop_id in log.hop_stats}
    drops = Counter(rec.hop_id for rec in log.drops)
    return {
        "duration_us": log.duration_us, "seed": log.seed,
        "delivered_packets": len(log.seqs), "dropped_packets": len(log.drops),
        "hops": {hop_id: {
            "dequeued_bytes": stats.dequeued_bytes, "drops": drops[hop_id],
            "utilization": utilization(log, hop_id) if stats.opportunity_bytes > 0 else None,
            "delay_p50_us": nearest_rank(delays[hop_id], 0.5) if delays[hop_id] else None,
            "delay_p95_us": nearest_rank(delays[hop_id], 0.95) if delays[hop_id] else None,
        } for hop_id, stats in log.hop_stats.items()},
        "flows": flows,
    }


def _timeline_lines(log: MetricsLog):
    """The packet timeline, one line per delivery in delivery order, then per drop.

    A delivery reads ``flow,seq,deliver time,`` then ``hop,enqueue,dequeue``
    per hop joined by ``;``; a drop reads ``drop,flow,seq,hop,time``.
    """
    for r in log.deliveries:
        hops = ";".join(f"{hop},{enq},{deq}" for hop, enq, deq in r.hops)
        yield f"{r.flow_id},{r.seq},{r.deliver_time},{hops}"
    for d in log.drops:
        yield f"drop,{d.flow_id},{d.seq},{d.hop_id},{d.time}"


def timeline_digest(log: MetricsLog) -> str:
    """sha256 of the packet timeline; equal digests mean equal timelines.

    It hashes each line of ``_timeline_lines`` followed by a newline.
    Compare two runs by their digests; the golden digests in the tests pin
    these bytes.  ``first_divergence`` says where two timelines part.
    """
    h = hashlib.sha256()
    for line in _timeline_lines(log):
        h.update(f"{line}\n".encode())
    return h.hexdigest()


def first_divergence(log_a: MetricsLog, log_b: MetricsLog):
    """Where two packet timelines part: None if they are equal.

    Otherwise ``(index, line_a, line_b)``: the index of the first line
    that differs and each side's line there, None for a side that ran out
    of lines.  The lines are the ones ``timeline_digest`` hashes.
    """
    pairs = zip_longest(_timeline_lines(log_a), _timeline_lines(log_b))
    for i, (a, b) in enumerate(pairs):
        if a != b:
            return i, a, b
    return None


# ---------------------------------------------------------------------------
# Output writers

_CSV_HEADERS = {
    "flows": ["time_us", "w_abc", "w_cubic", "inflight", "send_rate_bps"],
    "routers": ["time_us", "queue", "accel_fraction", "target_rate_bps",
                "dequeue_rate_bps", "queue_delay_us", "token", "mark"],
}


def write_outputs(log: MetricsLog, out_dir: str) -> dict:
    """Write summary.txt, flows/<id>.csv and routers/<hop>.csv under out_dir.

    summary.txt renders ``report(log)``, which is returned.  ``flows/`` and
    ``routers/`` are created only when the log holds samples to write there.
    """
    os.makedirs(out_dir, exist_ok=True)
    rep = report(log)
    # Hops sorted by id; a figure the report leaves as None gets no line.
    lines = [f"duration_s={rep['duration_us'] / US_PER_S:.6f}"]
    lines += [f"{key}={rep[key]}" for key in ("seed", "delivered_packets", "dropped_packets")]
    for hop_id, hop in sorted(rep["hops"].items()):
        prefix = f"hop.{hop_id}"
        lines += [f"{prefix}.{key}={hop[key]}" for key in ("dequeued_bytes", "drops")]
        if hop["utilization"] is not None:
            lines.append(f"{prefix}.utilization={hop['utilization']:.6f}")
        if hop["delay_p50_us"] is not None:
            lines.append(f"{prefix}.delay_p50_ms={hop['delay_p50_us'] / 1000:.3f}")
            lines.append(f"{prefix}.delay_p95_ms={hop['delay_p95_us'] / 1000:.3f}")
    for flow_id, bps in sorted(rep["flows"].items()):
        lines.append(f"flow.{flow_id}.steady_throughput_mbps={bps / 1e6:.4f}")
    with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")

    for sub, samples in (("flows", log.flow_samples), ("routers", log.router_samples)):
        if samples:
            os.makedirs(os.path.join(out_dir, sub), exist_ok=True)
        for name, rows in sorted(samples.items()):
            with open(os.path.join(out_dir, sub, f"{name}.csv"), "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(_CSV_HEADERS[sub])
                w.writerows(rows)
    return rep
