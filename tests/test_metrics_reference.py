"""The column-oriented delivery log against a plain list of records.

``_ReferenceLog`` keeps the earlier layout: one ``DeliveryRecord`` per
delivered packet, with a ``hops`` tuple of ``(hop_id, enq, deq)``, and the
statistics scan those records and sort a list of delays for a percentile.
Random deliveries over one random path per example (its hops in any
order, given to both logs as ``hop_stats``) and random windows must give
the same delays, percentiles, throughputs and records from both.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from accelbrake.core import US_PER_S
from accelbrake.metrics import (
    DeliveryRecord,
    HopStats,
    MetricsLog,
    delay_percentile,
    flow_throughputs,
    hop_delays_us,
    report,
)

HOPS = ["a", "b", "c", "d"]
FLOWS = ["f0", "f1", "short000001"]


def _nearest_rank(values, p):
    values = sorted(values)
    return values[math.ceil(p * len(values)) - 1]


class _ReferenceLog:
    def __init__(self, hop_stats):
        self.hop_stats = hop_stats
        self.deliveries = []

    def hop_delays_us(self, hop_id, start=0, end=None):
        out = []
        for rec in self.deliveries:
            for hid, enq, deq in rec.hops:
                if hid == hop_id and deq >= start and (end is None or deq <= end):
                    out.append(deq - enq)
        return out

    def delays_by_hop(self):
        out = {hop_id: [] for hop_id in self.hop_stats}
        for rec in self.deliveries:
            for hid, enq, deq in rec.hops:
                delays = out.get(hid)
                if delays is not None:
                    delays.append(deq - enq)
        return out

    def delay_percentile(self, hop_id, p, start=0, end=None):
        delays = self.hop_delays_us(hop_id, start, end)
        if not delays:
            raise ValueError("empty")
        return _nearest_rank(delays, p)

    def flow_throughputs(self, start, end, flows=None):
        delivered = {f: 0 for f in flows} if flows else {}
        for rec in self.deliveries:
            if start < rec.deliver_time <= end:
                delivered[rec.flow_id] = delivered.get(rec.flow_id, 0) + rec.size_bytes
        return {fid: b * 8 * US_PER_S / (end - start) for fid, b in delivered.items()}


_times = st.integers(0, 5_000)


@st.composite
def _delivery(draw, path):
    send = draw(_times)
    stamps, t = [], send
    for hop in path:
        enq = t + draw(st.integers(0, 300))
        deq = enq + draw(st.integers(0, 2_000))
        stamps.append((hop, enq, deq))
        t = deq
    return DeliveryRecord(draw(st.sampled_from(FLOWS)), draw(st.integers(0, 1_000)),
                          draw(st.integers(1, 1500)), send, t + draw(st.integers(0, 500)),
                          tuple(stamps))


@st.composite
def _path_and_deliveries(draw):
    path = draw(st.lists(st.sampled_from(HOPS), unique=True, max_size=len(HOPS)))
    return path, draw(st.lists(_delivery(path), max_size=40))


@settings(max_examples=300, deadline=None)
@given(path_and_records=_path_and_deliveries(),
       start=_times, end=st.one_of(st.none(), _times),
       p=st.floats(0.0, 1.0, exclude_min=True),
       tp_start=_times, tp_width=st.integers(1, 8_000),
       requested=st.one_of(st.none(), st.lists(st.sampled_from(FLOWS + ["quiet"]))))
def test_column_log_matches_record_list(path_and_records, start, end, p,
                                        tp_start, tp_width, requested):
    path, records = path_and_records
    log = MetricsLog()
    ref = _ReferenceLog({h: HopStats() for h in path})
    log.hop_stats.update({h: HopStats() for h in path})
    for rec in records:
        log.record_delivery(rec.flow_id, rec.seq, rec.size_bytes, rec.send_time,
                            rec.deliver_time, [t for _, enq, deq in rec.hops for t in (enq, deq)])
        ref.deliveries.append(rec)

    for hop in HOPS + ["unknown"]:
        assert hop_delays_us(log, hop) == ref.hop_delays_us(hop)
        assert hop_delays_us(log, hop, start, end) == ref.hop_delays_us(hop, start, end)
        try:
            want = ref.delay_percentile(hop, p, start, end)
        except ValueError:
            want = ValueError
        try:
            got = delay_percentile(log, hop, p, start, end)
        except ValueError:
            got = ValueError
        assert got == want
    want = {hop: (_nearest_rank(d, 0.5), _nearest_rank(d, 0.95)) if d else (None, None)
            for hop, d in ref.delays_by_hop().items()}
    assert {hop: (h["delay_p50_us"], h["delay_p95_us"])
            for hop, h in report(log)["hops"].items()} == want

    tp_end = tp_start + tp_width
    got = flow_throughputs(log, tp_start, tp_end, requested)
    assert list(got.items()) == list(ref.flow_throughputs(tp_start, tp_end, requested).items())

    view = log.deliveries
    n = len(records)
    assert len(view) == n
    assert bool(view) == bool(records)
    assert list(view) == records
    for i in range(-n, n):
        assert view[i] == records[i]
    for i in (n, -n - 1):
        try:
            view[i]
        except IndexError:
            pass
        else:
            raise AssertionError(f"index {i} of {n} deliveries must raise IndexError")
