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

The smoothing filter keeps each event's projection and dequeue rate as a
sample.  At an event's time ``now`` a sample weighs
``0.5 ** (age / half_life)`` with ``half_life = window/2``, and samples
leave from the front of the window once their time is below
``now - window``; the estimate is each series' weighted mean over the
samples left.  ``estimate_capacity`` evaluates this filter at every
event of a stream with a numpy kernel whose estimates are bit-identical
to a loop over the samples, oldest first.  It takes the stream
``_BLOCK`` events at a time:

1. The projection and the instantaneous rate of every event in the block
   as arrays: integer products stay integers until the division.  A mask
   checks each event's gap, PHY rate, frame size and batch.  The first
   event it rejects ends the block, and once the events before it are
   estimated the kernel raises that event's error.
2. Each event's window start: the front of the window walks forward
   past every sample below the event's cutoff, as the filter pops it, so
   times out of order or repeated get the filter's windows.
3. Three sums per event (weighted projections, weighted rates, weights),
   built one window position at a time, oldest sample first.  At
   position k every event with a k-th sample adds ``w * value`` to its
   sums, a separately rounded multiply and add, as the filter's loop
   does; numpy fuses neither.  Same operations in the same order give
   the same bits.
4. Weights are Python's own ``**``: numpy's ``power`` differs from it in
   the last bit for some exponents.  Times in order make every age an
   integer in ``[0, window]``, and the kernel works out each such age's
   weight once and keeps it in a table, for windows shorter than
   ``_TABLE_SPAN`` microseconds.  Other ages (float times, times out of
   order, longer windows) are worked out per sample.

Memory: a stream and its estimates are columns, one numpy array per
field, eight bytes a value.  The generator and the trace reader append
to ``array`` columns and hand their memory to numpy; the estimator reads
slices of the trace's columns and writes time, raw, current and capped
estimates into four arrays it allocates once.  The read-only views
``AckTraceView`` and ``EstimateView`` build an ``AmpduAckEvent`` or an
``EstimatePoint`` when one is read, and a slice of either is a view of
the same columns.  Each function that takes a stream or estimates
converts it once, on entry, through ``from_records``: a view passes as
it is, records become columns typed as ``np.array`` types their values.
Beyond the columns, the kernel holds the block's arrays, the samples of
the last window carried into the next block, and the table:
O(block + window) whatever the stream's length.

``generate_mac_trace`` synthesizes acknowledgment streams with known
ground truth for exercising the estimator.  Each batch's overhead is
one ``random.Random.lognormvariate`` draw above the profile's floor, and
``tests/test_companion_reference.py`` checks the stream bit for bit
against a plain reference loop.
"""

from __future__ import annotations

import csv
import math
import mmap
import operator
import random
from array import array
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, fields
from itertools import chain, starmap
from operator import attrgetter
from typing import Optional

import numpy as np

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


@dataclass(slots=True)
class EstimatePoint:
    time_us: SimTime
    raw_bps: float       # filtered backlogged projection
    current_bps: float   # filtered dequeue rate
    capped_bps: float    # the published estimate: min(raw, 2 * current)


_BLOCK = 1024            # events per kernel block
_TABLE_SPAN = 1 << 16    # windows (us) shorter than this keep their weights in a table


def _rows(*columns: np.ndarray):
    """Tuples of the columns' values as Python numbers, a block at a time."""
    return chain.from_iterable(
        zip(*[c[lo:lo + _BLOCK].tolist() for c in columns])
        for lo in range(0, len(columns[0]), _BLOCK))


def _frombuffer(column: array) -> np.ndarray:
    """The ``array`` column as a numpy array over the same memory."""
    return np.frombuffer(column, dtype=column.typecode)


class _Columns(Sequence):
    """Read-only sequence of records kept as one numpy column per field.

    Each record is built when it is read, from Python numbers; a slice is
    a view of the same columns.  It equals a list or view of equal records.
    """

    __slots__ = ("columns",)
    record: type
    # The columns of a sequence with no records, which has no values to type them.
    empty_dtypes: tuple

    def __init__(self, columns):
        self.columns = tuple(columns)

    @classmethod
    def from_records(cls, records):
        """A view as it is; records as columns, each typed as ``np.array`` types its values."""
        if isinstance(records, cls):
            return records
        records = list(records)
        if not records:
            return cls(np.empty(0, dtype) for dtype in cls.empty_dtypes)
        return cls(np.array(list(map(attrgetter(f.name), records))) for f in fields(cls.record))

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return type(self)(c[i] for c in self.columns)
        # range() checks the bounds and resolves a negative index.
        i = range(len(self))[i]
        return self.record(*[c.item(i) for c in self.columns])

    def __iter__(self):
        return starmap(self.record, _rows(*self.columns))

    def __eq__(self, other):
        if not isinstance(other, (list, _Columns)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    __hash__ = None


class AckTraceView(_Columns):
    """An acknowledgment stream, one column per ``AmpduAckEvent`` field."""

    __slots__ = ()
    record = AmpduAckEvent
    empty_dtypes = (np.int64, np.int64, np.int64, np.float64, np.int64, np.float64, np.int64)


class EstimateView(_Columns):
    """Estimates as columns: time, raw, current and capped, ``EstimatePoint``'s fields."""

    __slots__ = ()
    record = EstimatePoint
    empty_dtypes = (np.int64, np.float64, np.float64, np.float64)


def _block_rates(b, s, r, m, gaps):
    """Backlogged projection and instantaneous rate of each event in a block.

    On the block's batch, frame size, PHY rate, max batch and gap columns:
    the projection ``M*S / (T_IA + (M-b)*S/R)`` and the rate ``b*S / T_IA``,
    in bits/s, integer products staying integers until the division.  Also
    returns the index of the first event the mask rejects, or None.  The
    mask asks for a positive gap, PHY rate and frame size (NaN fails) and
    ``1 <= b <= M``, so every event it passes has a positive airtime.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        full_us = gaps + (m - b) * s * US_PER_S / r
        projection = m * s * US_PER_S / full_us
        rate = b * s * US_PER_S / gaps
    bad = np.flatnonzero(~(gaps > 0) | ~(r > 0) | ~(s > 0) | ~((1 <= b) & (b <= m)))
    return projection, rate, (int(bad[0]) if bad.size else None)


def _reject(event: AmpduAckEvent):
    """Raise the error for an event the mask rejects: gap, PHY rate, frame size, else batch."""
    if not event.inter_ack_us > 0:
        # float(): a gap recomputed from integer times may be an int.
        raise ValueError(f"inter-ACK time must be positive, got {float(event.inter_ack_us)}")
    if not event.phy_rate_bps > 0:
        raise ValueError(f"PHY rate must be positive, got {event.phy_rate_bps}")
    if not event.frame_bits > 0:
        raise ValueError(f"frame size must be positive, got {event.frame_bits}")
    raise ValueError(f"batch of {event.batch_frames} outside [1, {event.max_batch}]")


def _window_starts(times: np.ndarray, cutoffs: np.ndarray) -> np.ndarray:
    """Where each event's window begins, as the smoothing filter pops it.

    A sample leaves only from the front of the window, once its time is
    below the cutoff, so the front walks forward; times need not be in
    order.
    """
    front, starts, i = times.tolist(), [], 0
    for cutoff in cutoffs.tolist():
        while front[i] < cutoff:
            i += 1
        starts.append(i)
    return np.array(starts, dtype=np.intp)


def _estimate_stream(trace: AckTraceView, window_us: SimTime,
                     cap_factor: float) -> EstimateView:
    """Filtered projection, dequeue rate and capped estimate at every event.

    Works block by block as the module docstring lays out: a block reads
    slices of the trace's columns and writes slices of the estimates'
    columns, which are allocated once.  The samples still in the window
    after a block are carried into the next.
    """
    if not cap_factor > 0:
        raise ValueError(f"cap factor must be positive, got {cap_factor}")
    if window_us <= 0:
        raise ValueError(f"filter window must be positive, got {window_us}")
    window_us = int(window_us)
    half_life = window_us / 2.0
    # table[d] is the weight of integer age d, or 0.0 until first needed;
    # every age in the window weighs at least 0.25.  The table is an
    # anonymous mapping of its own, so its pages go back to the system when
    # the call returns; freed into the heap they would stay resident.
    table = np.frombuffer(mmap.mmap(-1, 8 * (window_us + 1))) \
        if window_us < _TABLE_SPAN else None
    time_us, batch, bits, phy, max_batch, gap = trace.columns[:6]
    total = len(trace)
    estimates = EstimateView(np.empty(total, dtype) for dtype in EstimateView.empty_dtypes)
    out_time, out_raw, out_cur, out_capped = estimates.columns
    win_times = time_us[:0]
    win_raw = win_cur = np.empty(0)
    for lo in range(0, total, _BLOCK):
        hi = min(lo + _BLOCK, total)
        t = time_us[lo:hi]
        projection, rate, first_bad = _block_rates(
            batch[lo:hi], bits[lo:hi], phy[lo:hi].astype(float, copy=False),
            max_batch[lo:hi], gap[lo:hi])
        n = hi - lo if first_bad is None else first_bad

        # The window's samples, then the block's: event i sits at c + i.
        c = win_times.size
        times = np.concatenate((win_times, t[:n]))
        raws = np.concatenate((win_raw, projection[:n]))
        curs = np.concatenate((win_cur, rate[:n]))
        now = times[c:]
        starts = _window_starts(times, now - window_us)
        # In time order every age is an integer in [0, window_us] if the
        # times are integers.
        in_table = (table is not None and times.dtype.kind == "i"
                    and (times[1:] >= times[:-1]).all())

        # Longest window first: the events with a sample at window position
        # k are then the first active[k] of this order.  (Python's sort: for
        # a block this small it costs little, and numpy's sort kernels would
        # map some 300 KB more of its code into the process.)
        length = (np.arange(c + 1, c + n + 1) - starts).tolist()
        order = np.array(sorted(range(n), key=length.__getitem__, reverse=True),
                         dtype=np.intp)
        active = (n - np.cumsum(np.bincount(length, minlength=1))[:-1]).tolist()
        first_sample, now_o = starts[order], now[order]
        num_raw, num_cur, den = np.zeros(n), np.zeros(n), np.zeros(n)
        for k, m in enumerate(active):
            j = first_sample[:m] + k
            ages = now_o[:m] - times[j]
            if in_table:
                w = table[ages]
                fresh = ages[w == 0.0]
                if fresh.size:
                    fresh = list(dict.fromkeys(fresh.tolist()))
                    table[fresh] = [0.5 ** (d / half_life) for d in fresh]
                    w = table[ages]
            else:
                w = np.array([0.5 ** (d / half_life) for d in ages.tolist()], dtype=float)
            num_raw[:m] += w * raws[j]
            num_cur[:m] += w * curs[j]
            den[:m] += w
        raw, cur = out_raw[lo:lo + n], out_cur[lo:lo + n]
        raw[order] = num_raw / den
        cur[order] = num_cur / den
        # min(raw, scaled) as Python takes it: raw unless scaled is less.
        scaled = cap_factor * cur
        out_capped[lo:lo + n] = np.where(scaled < raw, scaled, raw)
        # Float times are truncated as int() truncates them.
        out_time[lo:lo + n] = ([int(v) for v in t[:n].tolist()] if t.dtype.kind == "f"
                               else t[:n])

        if first_bad is not None:
            _reject(trace[lo + first_bad])
        tail = starts[-1]
        win_times, win_raw, win_cur = times[tail:], raws[tail:], curs[tail:]
    return estimates


def estimate_capacity(events: Sequence[AmpduAckEvent], window_us: SimTime = 40_000,
                      cap_factor: float = 2.0) -> EstimateView:
    """Run the estimator over one shared stream: an ``AckTraceView`` or ``AmpduAckEvent``s."""
    return _estimate_stream(AckTraceView.from_records(events), window_us, cap_factor)


def estimate_capacity_per_user(events: Sequence[AmpduAckEvent],
                               window_us: SimTime = 40_000,
                               cap_factor: float = 2.0) -> dict[int, EstimateView]:
    """Per-station estimates from a shared medium.

    Each user's inter-ACK times are recomputed between that user's own
    acknowledgments, so other stations' airtime is absorbed into the
    per-batch overhead and the projection yields the rate this user would
    see if it alone were backlogged (its contended share).  A user's first
    acknowledgment only starts its clock, so a user with one has no
    estimates.
    """
    trace = AckTraceView.from_records(events)
    rows: dict[int, list[int]] = {}
    for i, user in enumerate(trace.columns[6].tolist()):
        rows.setdefault(user, []).append(i)
    per_user = {}
    for user, index in sorted(rows.items()):
        own = [c[index] for c in trace.columns]
        gap = np.diff(own[0])
        own = [c[1:] for c in own]
        own[5] = gap
        per_user[user] = _estimate_stream(AckTraceView(own), window_us, cap_factor)
    return per_user


# ---------------------------------------------------------------------------
# Synthetic acknowledgment streams


@dataclass
class OverheadModel:
    """Shifted log-normal per-batch overhead, independent of batch size."""

    mean_us: float = 1000.0
    std_us: float = 200.0
    floor_us: float = 200.0

    def validate(self) -> None:
        if not all(map(math.isfinite, (self.mean_us, self.std_us, self.floor_us))):
            raise ValueError("overhead mean, deviation and floor must be finite")
        if self.floor_us < 0 or self.mean_us <= self.floor_us:
            raise ValueError("overhead mean must exceed its floor")
        if self.std_us < 0:
            raise ValueError("overhead deviation must be non-negative")


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
        if not (self.phy_rate_bps > 0 and self.max_batch >= 1 and self.frame_bits > 0):
            raise ValueError("profile must have positive rate, batch and frame size")

    def true_capacity(self, phy_rate_bps: Optional[float] = None) -> float:
        """Backlogged throughput: M*S over a full batch's expected airtime."""
        r = phy_rate_bps if phy_rate_bps is not None else self.phy_rate_bps
        batch_bits = self.max_batch * self.frame_bits
        return batch_bits * US_PER_S / (batch_bits * US_PER_S / r + self.overhead.mean_us)


def generate_mac_trace(profile: LinkProfile, offered_load_bps: float,
                       duration_s: float, seed: int = 0,
                       rate_schedule: Optional[Sequence[tuple[float, float]]] = None,
                       user: int = 0) -> AckTraceView:
    """Synthesize a block-ACK stream for a station offered a fluid load.

    Frames of ``frame_bits`` arrive continuously at ``offered_load_bps``;
    whenever at least one whole frame is queued the link sends
    ``min(M, floor(queue))`` of them and acknowledges the batch after its
    airtime plus one overhead drawn from the profile's log-normal.
    ``rate_schedule`` optionally steps the PHY rate over time as
    ``(start_s, rate_bps)`` pairs, in order of start.  Each acknowledgment
    appends its time, batch, PHY rate and gap to a column.
    """
    # NaN fails the comparisons; an infinite load or duration would never end.
    if not 0 < offered_load_bps < math.inf:
        raise ValueError(f"offered load must be positive and finite, got {offered_load_bps}")
    if not 0 < duration_s < math.inf:
        raise ValueError(f"duration must be positive and finite, got {duration_s}")
    schedule = [(0.0, profile.phy_rate_bps)] if rate_schedule is None \
        else [(float(a), float(b)) for a, b in rate_schedule]
    if schedule[0][0] != 0.0:
        raise ValueError("rate schedule must start at time 0")
    starts = [s for s, _ in schedule]
    rates = [r for _, r in schedule]
    if any(a > b for a, b in zip(starts, starts[1:])):
        raise ValueError("rate schedule must be in order of start time")
    for r in rates:
        if not r > 0:
            raise ValueError(f"rate schedule rates must be positive, got {r}")
        if offered_load_bps > 2.0 * profile.true_capacity(r):
            raise ValueError("offered load exceeds twice the link capacity")

    # The overhead is floor plus a log-normal draw, so that it has the
    # profile's mean and deviation, or the mean when it does not vary.
    oh = profile.overhead
    draw = oh.std_us != 0
    if draw:
        m = oh.mean_us - oh.floor_us
        sigma2 = math.log(1.0 + (oh.std_us / m) ** 2)
        mu = math.log(m) - sigma2 / 2.0
        sigma = math.sqrt(sigma2)
    lognormvariate = random.Random(seed).lognormvariate
    floor, mean = oh.floor_us, oh.mean_us

    max_batch, frame_bits = profile.max_batch, profile.frame_bits
    duration_us = duration_s * US_PER_S
    arrivals_per_us = offered_load_bps / frame_bits / US_PER_S
    backlog_cap = 50.0 * max_batch
    # The rate in force, phy, is looked up again once t reaches the next
    # step's start; tx_us[b] is then the airtime of a batch of b frames.
    next_start = 0.0
    t = 0.0
    backlog = 0.0
    prev_ack = 0.0
    times, batches, phys, gaps = array("q"), array("q"), array("d"), array("d")
    add_time, add_batch, add_phy, add_gap = times.append, batches.append, phys.append, gaps.append
    while True:
        if backlog < 1.0:
            t += (1.0 - backlog) / arrivals_per_us
            backlog = 1.0
        if t / US_PER_S >= next_start:
            step = bisect_right(starts, t / US_PER_S)
            phy = rates[step - 1]
            next_start = starts[step] if step < len(starts) else math.inf
            tx_us = [b * frame_bits * US_PER_S / phy for b in range(max_batch + 1)]
        b = int(backlog)
        if b > max_batch:
            b = max_batch
        if draw:
            airtime = tx_us[b] + (floor + lognormvariate(mu, sigma))
        else:
            airtime = tx_us[b] + mean
        t += airtime
        if t > duration_us:
            break
        backlog = backlog + arrivals_per_us * airtime - b
        if backlog > backlog_cap:
            backlog = backlog_cap
        add_time(int(t))
        add_batch(b)
        add_phy(phy)
        add_gap(t - prev_ack)
        prev_ack = t
    n = len(times)
    return AckTraceView((_frombuffer(times), _frombuffer(batches), np.full(n, frame_bits),
                         _frombuffer(phys), np.full(n, max_batch), _frombuffer(gaps),
                         np.full(n, user)))


def merge_user_streams(*streams: Sequence[AmpduAckEvent]) -> AckTraceView:
    """Interleave per-user streams by time, recomputing shared inter-ACK gaps.

    Stations' ACKs at one time are kept, in order of user: the later ones
    get a zero shared gap, which ``estimate_capacity`` rejects.  Per-user
    estimates recompute each station's gaps from its own times.
    """
    parts = [AckTraceView.from_records(s) for s in streams] or [AckTraceView.from_records([])]
    columns = [np.concatenate(c) for c in zip(*(p.columns for p in parts))]
    # By time, then user; Python's sort keeps equal keys in stream order.
    keys = list(zip(columns[0].tolist(), columns[6].tolist()))
    order = sorted(range(len(keys)), key=keys.__getitem__)
    columns = [c[order] for c in columns]
    # The first gap counts from time 0.
    columns[5] = np.diff(columns[0], prepend=0.0)
    return AckTraceView(columns)


# ---------------------------------------------------------------------------
# Trace and estimate files

MAC_TRACE_COLUMNS = ["time_us", "b", "S_bits", "R_bps", "M", "T_IA_us"]


def write_mac_trace(events: Sequence[AmpduAckEvent], path: str) -> None:
    """Write a trace; the ``user`` column is left out when every user is 0."""
    trace = AckTraceView.from_records(events)
    header = MAC_TRACE_COLUMNS + (["user"] if trace.columns[6].any() else [])
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        # One column per header name: the user column only when it is written.
        for t, b, s, r, m, gap, *user in _rows(*trace.columns[:len(header)]):
            w.writerow([t, b, s, f"{r:.0f}", m, f"{gap:.3f}", *user])


def read_mac_trace(path: str) -> AckTraceView:
    columns = [array(code) for code in "qqqdqdq"]
    appends = [c.append for c in columns]
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header[:6]] != MAC_TRACE_COLUMNS:
            raise ValueError(f"{path}: expected header {','.join(MAC_TRACE_COLUMNS)}")
        for lineno, row in enumerate(reader, 2):
            if not row:
                continue
            try:
                values = (int(row[0]), int(row[1]), int(row[2]), float(row[3]),
                          int(row[4]), float(row[5]), int(row[6]) if len(row) > 6 else 0)
                for add, value in zip(appends, values):
                    add(value)
            except (ValueError, IndexError, OverflowError) as exc:
                raise ValueError(f"{path}:{lineno}: malformed trace row: {exc}") from exc
    return AckTraceView(map(_frombuffer, columns))


def write_estimates(points: Sequence[EstimatePoint], path: str) -> None:
    """Write ``time_us,mu_hat_bps`` rows, the bytes ``csv.writer`` would write.

    ``csv.writer`` ends rows with ``\r\n`` and never quotes an integer or a
    formatted float, so the lines are formatted directly, from the time and
    capped columns of an ``EstimateView``.
    """
    time_us, _, _, capped = EstimateView.from_records(points).columns
    with open(path, "w", newline="") as fh:
        fh.write("time_us,mu_hat_bps\r\n")
        fh.writelines(f"{t},{c:.1f}\r\n" for t, c in _rows(time_us, capped))
