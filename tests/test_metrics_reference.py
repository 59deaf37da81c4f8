"""The column-oriented delivery log against a plain list of records.

``_ReferenceLog`` keeps the earlier layout: one ``DeliveryRecord`` per
delivered packet, with a ``hops`` tuple of ``(hop_id, enq, deq)``, and the
statistics scan those records.  Random deliveries over random paths (hops
in any order, some missing from ``hop_stats``) and random windows must
give the same delays, percentiles, throughputs and records from both.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from accelbrake.core import US_PER_S
from accelbrake.metrics import (
    DeliveryRecord,
    HopStats,
    MetricsLog,
    delay_percentile,
    delays_by_hop,
    flow_throughputs,
    hop_delays_us,
    nearest_rank,
)

HOPS = ["a", "b", "c", "d"]
FLOWS = ["f0", "f1", "short000001"]


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
        return nearest_rank(delays, p)

    def flow_throughputs(self, start, end, flows=None):
        delivered = {f: 0 for f in flows} if flows else {}
        for rec in self.deliveries:
            if start < rec.deliver_time <= end:
                delivered[rec.flow_id] = delivered.get(rec.flow_id, 0) + rec.size_bytes
        return {fid: b * 8 * US_PER_S / (end - start) for fid, b in delivered.items()}


_times = st.integers(0, 5_000)


@st.composite
def _delivery(draw):
    path = draw(st.lists(st.sampled_from(HOPS), unique=True, max_size=len(HOPS)))
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


@settings(max_examples=300, deadline=None)
@given(records=st.lists(_delivery(), max_size=40),
       stats_hops=st.lists(st.sampled_from(HOPS), unique=True),
       start=_times, end=st.one_of(st.none(), _times),
       p=st.floats(0.0, 1.0, exclude_min=True),
       tp_start=_times, tp_width=st.integers(1, 8_000),
       requested=st.one_of(st.none(), st.lists(st.sampled_from(FLOWS + ["quiet"]))))
def test_column_log_matches_record_list(records, stats_hops, start, end, p,
                                        tp_start, tp_width, requested):
    log = MetricsLog()
    ref = _ReferenceLog({h: HopStats() for h in stats_hops})
    log.hop_stats.update({h: HopStats() for h in stats_hops})
    for rec in records:
        log.record_delivery(rec.flow_id, rec.seq, rec.size_bytes, rec.send_time,
                            rec.deliver_time, [x for stamp in rec.hops for x in stamp])
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
    assert delays_by_hop(log) == ref.delays_by_hop()

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
