"""The shared sender ACK reaction against the two flavors it replaced.

``_ReferenceAbcSender`` and ``_ReferenceCubicSender`` keep the earlier
code, in which each flavor wrote its own ACK sequence (retire, stale
check, mark update, Cubic reaction, cap, transmit, cap check), its own
timeout and its own window clamp.  ``transmit`` is inherited
(``tests/test_hotpath_reference.py`` checks it), wrapped by
``_CountingSender`` to keep the earlier ``inflight`` and budget counters
that the library now derives.  The library's ``on_ack`` retires the
acknowledged prefix and checks the cap in its own frame;
``_CountingSender`` keeps those steps as the separate ``_retire`` and
``_check_cap`` they were, and the RTT guard as the ``rtt_estimate``
reading the library no longer has.  Random ACK streams must leave both sides in
the same state after every step.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accelbrake.core import ACCEL, BRAKE, MTU_BYTES, Ack, EcnCodepoint
from accelbrake.legacy import CubicWindow
from accelbrake.sender import WINDOW_FLOOR, AbcSender, CubicSender, FlowSender


class _CountingSender(FlowSender):
    inflight = 0  # a counter, overriding the library's len(unacked) property

    def __init__(self, flow_id, initial_window, base_rtt_us, bytes_budget):
        super().__init__(flow_id, initial_window, base_rtt_us, bytes_budget)
        self._budget_left = bytes_budget

    def transmit(self, now):
        out = super().transmit(now)
        self.inflight += len(out)
        if self._budget_left is not None:
            self._budget_left -= sum(pkt.size_bytes for pkt in out)
        return out

    def _retire(self, acked_seq, now):
        """Drop everything at or below the cumulative ACK point; returns
        (packets retired, bytes retired)."""
        unacked = self.unacked
        end = self.next_seq
        start = end - len(unacked)
        if acked_seq < end:
            end = acked_seq + 1
        if end <= start:
            return 0, 0
        retired_bytes = 0
        for seq in range(start, end):
            size, sent_at = unacked.pop(seq)
            retired_bytes += size
        retired_pkts = end - start
        sample = now - sent_at
        self.srtt_us = sample if self.srtt_us is None \
            else (7 * self.srtt_us + sample) // 8
        self.inflight -= retired_pkts
        return retired_pkts, retired_bytes

    def _check_cap(self):
        limit = 2.0 * max(self.inflight, 1)
        if self.effective_window() > limit + 1e-9:
            self.cap_violations += 1

    def rtt_estimate(self):
        """Smoothed round trip including queueing, floored at the base path."""
        srtt = self.srtt_us or 0
        return srtt if srtt > self.base_rtt_us else self.base_rtt_us


def _base_timeout(sender, now):
    sender.unacked.clear()
    sender.inflight = 0
    sender.last_progress = now
    return sender.transmit(now)


class _ReferenceAbcSender(_CountingSender):
    initial_mark = EcnCodepoint.ACCEL

    def __init__(self, flow_id, initial_window=10.0, base_rtt_us=100_000,
                 additive_increase=True, bytes_budget=None):
        super().__init__(flow_id, initial_window, base_rtt_us, bytes_budget)
        self.w_abc = float(initial_window)
        self.cubic = CubicWindow(initial_window, rtt_guard_us=base_rtt_us)
        self.additive_increase = additive_increase

    def effective_window(self):
        return min(self.w_abc, self.cubic.cwnd)

    def on_ack(self, ack, now):
        newly = ack.bytes_newly_acked
        retired_pkts, retired_bytes = self._retire(ack.acked_seq, now)
        if retired_pkts == 0 and newly == 0:
            return []
        self.last_progress = now
        delta = newly / MTU_BYTES
        w = self.w_abc
        mark = ack.echo_mark
        if mark is ACCEL:
            w += delta * (1.0 + 1.0 / w) if self.additive_increase else delta
        elif mark is BRAKE:
            w += delta * (-1.0 + 1.0 / w) if self.additive_increase else -delta
        self.w_abc = w if w > WINDOW_FLOOR else WINDOW_FLOOR
        lost = retired_bytes > newly
        cubic = self.cubic
        cubic.rtt_guard_us = self.rtt_estimate()
        if ack.ece or lost:
            cubic.on_congestion(now)
        else:
            cubic.on_ack(delta, now)
        self._apply_cap()
        out = self.transmit(now)
        self._check_cap()
        return out

    def on_timeout(self, now):
        self.cubic.on_timeout(now)
        out = _base_timeout(self, now)
        self._apply_cap()
        return out

    def _clamp_windows(self, limit):
        self.w_abc = max(WINDOW_FLOOR, min(self.w_abc, limit))
        self.cubic.cwnd = max(WINDOW_FLOOR, min(self.cubic.cwnd, limit))


class _ReferenceCubicSender(_CountingSender):
    def __init__(self, flow_id, initial_window=10.0, base_rtt_us=100_000,
                 bytes_budget=None):
        super().__init__(flow_id, initial_window, base_rtt_us, bytes_budget)
        self.cubic = CubicWindow(initial_window, rtt_guard_us=base_rtt_us)

    def effective_window(self):
        return self.cubic.cwnd

    def on_ack(self, ack, now):
        newly = ack.bytes_newly_acked
        retired_pkts, retired_bytes = self._retire(ack.acked_seq, now)
        if retired_pkts == 0 and newly == 0:
            return []
        self.last_progress = now
        lost = retired_bytes > newly
        cubic = self.cubic
        cubic.rtt_guard_us = self.rtt_estimate()
        if ack.ece or lost:
            cubic.on_congestion(now)
        else:
            cubic.on_ack(newly / MTU_BYTES, now)
        self._apply_cap()
        out = self.transmit(now)
        self._check_cap()
        return out

    def on_timeout(self, now):
        self.cubic.on_timeout(now)
        return _base_timeout(self, now)

    def _clamp_windows(self, limit):
        self.cubic.cwnd = max(WINDOW_FLOOR, min(self.cubic.cwnd, limit))


# An ACK's point is drawn relative to the lowest unacked sequence number:
# below it (a stale duplicate when nothing is newly acknowledged), inside
# the window, or past next_seq.  Its newly acknowledged bytes are either
# those of the packets it retires less the first ``holes`` of them (lost
# packets; none for a clean ACK) or an arbitrary count.
_acks = st.tuples(
    st.just("ack"),
    st.integers(-3, 14),
    st.one_of(st.tuples(st.just("holes"), st.integers(0, 3)), st.integers(0, 6_000)),
    st.sampled_from([EcnCodepoint.ACCEL, EcnCodepoint.BRAKE, EcnCodepoint.NOT_ECT]),
    st.booleans(),
)
_ops = st.lists(st.tuples(
    st.integers(0, 60_000),  # microseconds since the previous step
    st.one_of(_acks, _acks, _acks, st.tuples(st.just("timeout")), st.tuples(st.just("stop"))),
), max_size=150)


def _newly_acked(sender, acked_seq, spec):
    if not isinstance(spec, tuple):
        return spec
    sizes = [size for seq, (size, _) in sender.unacked.items() if seq <= acked_seq]
    return sum(sizes[spec[1]:])


@pytest.mark.parametrize("abc, additive_increase",
                         [(True, True), (True, False), (False, True)])
@settings(max_examples=300, deadline=None)
@given(initial_window=st.floats(1.0, 24.0),
       base_rtt_us=st.integers(1_000, 200_000),
       budget=st.one_of(st.none(), st.integers(0, 80_000)), ops=_ops)
def test_sender_matches_reference(abc, additive_increase, initial_window, base_rtt_us,
                                  budget, ops):
    if abc:
        new = AbcSender("f", initial_window, base_rtt_us, additive_increase, budget)
        ref = _ReferenceAbcSender("f", initial_window, base_rtt_us, additive_increase, budget)
    else:
        new = CubicSender("f", initial_window, base_rtt_us, budget)
        ref = _ReferenceCubicSender("f", initial_window, base_rtt_us, budget)
    now = 0
    assert new.start(now) == ref.start(now)
    for step, op in ops:
        now += step
        if op[0] == "ack":
            _, offset, newly, mark, ece = op
            acked_seq = ref.next_seq - len(ref.unacked) + offset - 2
            ack = Ack("f", acked_seq, _newly_acked(ref, acked_seq, newly), mark, ece=ece)
            got, want = new.on_ack(ack, now), ref.on_ack(ack, now)
        elif op[0] == "timeout":
            got, want = new.on_timeout(now), ref.on_timeout(now)
        else:
            new.stopped = ref.stopped = True
            got = want = []
        assert got == want
        if abc:
            assert new.w_abc == ref.w_abc
        assert new.w_cubic == ref.cubic.cwnd
        assert vars(new.cubic) == vars(ref.cubic)
        for attr in ("inflight", "next_seq", "cap_violations", "srtt_us",
                     "last_progress", "bytes_sent"):
            assert getattr(new, attr) == getattr(ref, attr), attr
        if budget is not None:
            assert new.bytes_budget - new.bytes_sent == ref._budget_left
