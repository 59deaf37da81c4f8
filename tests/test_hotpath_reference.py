"""The sender's per-packet path against the straightforward version it replaced.

``_ReferenceSender`` keeps the earlier, simpler code: a sender that scans
every unacked sequence number per ACK, re-reads its window per packet and
keeps its own ``inflight`` and budget counters (the library derives
both).  The reference reads its window through ``effective_window()``,
where the library's ``transmit`` reads it in its own frame.  The library
retires the acknowledged prefix inside ``on_ack``, so an ACK is fed to
its ``on_ack`` and to the reference's retire, stale check and
``transmit``, the parts of the reaction that decide which packets go.
Random operation sequences must give the same decisions and the same
state from both.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from accelbrake.core import MTU_BYTES, Ack, EcnCodepoint, Packet
from accelbrake.sender import FlowSender


class _ReferenceSender(FlowSender):
    inflight = 0  # a counter, overriding the library's len(unacked) property

    def __init__(self, flow_id, bytes_budget=None):
        super().__init__(flow_id, bytes_budget=bytes_budget)
        self._budget_left = bytes_budget

    def on_timeout(self, now):
        self.inflight = 0
        return super().on_timeout(now)

    def transmit(self, now):
        out = []
        while not self.stopped and self.inflight < self.effective_window():
            size = MTU_BYTES
            if self._budget_left is not None:
                if self._budget_left <= 0:
                    break
                size = min(size, self._budget_left)
                self._budget_left -= size
            pkt = Packet(self.flow_id, self.next_seq, size, self.initial_mark, now)
            self.unacked[self.next_seq] = (size, now)
            self.next_seq += 1
            self.inflight += 1
            self.bytes_sent += size
            out.append(pkt)
        return out

    def on_ack(self, ack, now):
        retired_pkts, _ = self._retire(ack.acked_seq, now)
        if retired_pkts == 0 and ack.bytes_newly_acked == 0:
            return []  # duplicate or stale
        return self.transmit(now)

    def _retire(self, acked_seq, now):
        retired_pkts = 0
        retired_bytes = 0
        sent_at = None
        for seq in list(self.unacked):
            if seq > acked_seq:
                break
            size, sent_at = self.unacked.pop(seq)
            retired_bytes += size
            retired_pkts += 1
        self.inflight -= retired_pkts
        if sent_at is not None:
            sample = now - sent_at
            self.srtt_us = sample if self.srtt_us is None \
                else (7 * self.srtt_us + sample) // 8
        return retired_pkts, retired_bytes


# An ACK's point is drawn relative to the window: below it, inside it
# (skipping unacked packets leaves sequence holes), or past next_seq.
_windows = st.floats(0.0, 12.0)
_sender_ops = st.lists(st.one_of(
    st.tuples(st.just("send"), _windows, st.none() | _windows),
    st.tuples(st.just("ack"), st.integers(-3, 14)),
    st.tuples(st.just("timeout")),
    st.tuples(st.just("stop")),
), max_size=120)


@settings(max_examples=300, deadline=None)
@given(budget=st.one_of(st.none(), st.integers(0, 40_000)), ops=_sender_ops)
def test_sender_retire_and_transmit_match_reference(budget, ops):
    new = FlowSender("f", bytes_budget=budget)
    ref = _ReferenceSender("f", bytes_budget=budget)
    now = 0
    for op in ops:
        now += 1_000
        if op[0] == "send":
            # The Cubic window and, when drawn, an accel/brake window.
            for sender in (new, ref):
                sender.cubic.cwnd, sender.w_abc = op[1], op[2]
            assert new.transmit(now) == ref.transmit(now)
        elif op[0] == "ack":
            lowest = ref.next_seq - len(ref.unacked)
            acked_seq = lowest + op[1] - 2
            newly = sum(size for seq, (size, _) in ref.unacked.items() if seq <= acked_seq)
            ack = Ack("f", acked_seq, newly, EcnCodepoint.NOT_ECT)
            got = new.on_ack(ack, now)
            # The reference sends under the windows the library's reaction
            # left (tests/test_sender_reference.py checks those).
            vars(ref.cubic).update(vars(new.cubic))
            ref.w_abc = new.w_abc
            assert got == ref.on_ack(ack, now)
        elif op[0] == "timeout":
            assert new.on_timeout(now) == ref.on_timeout(now)
        else:
            new.stopped = ref.stopped = True
        assert new.unacked == ref.unacked
        assert list(new.unacked) == list(range(new.next_seq - len(new.unacked), new.next_seq))
        for attr in ("next_seq", "inflight", "srtt_us", "bytes_sent"):
            assert getattr(new, attr) == getattr(ref, attr), attr
        if budget is not None:
            assert new.bytes_budget - new.bytes_sent == ref._budget_left
