"""The per-packet paths against the straightforward versions they replaced.

``_ReferenceDualQueue`` and ``_ReferenceSender`` keep the earlier, simpler
code: a queue that recounts its backlog and builds its busy list on every
call, and a sender that scans every unacked sequence number per ACK,
re-reads its window per packet and keeps its own ``inflight`` and budget
counters (the library derives both).  The reference reads its window
through ``effective_window()``, where the library's ``transmit`` reads it
in its own frame.  The library retires the acknowledged prefix inside
``on_ack``, so an ACK is fed to its ``on_ack`` and to the reference's
retire, stale check and ``transmit``, the parts of the reaction that
decide which packets go.  Random operation sequences must give the same
decisions and the same state from both.
"""

from collections import deque
from typing import Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from accelbrake.core import MTU_BYTES, Ack, EcnCodepoint, Packet
from accelbrake.router import ABC_QUEUE, LEGACY_QUEUE, DualQueue
from accelbrake.sender import FlowSender


class _ReferenceDualQueue:
    THRESHOLD_RATIO = 2.0

    def __init__(self, capacity_pkts, quantum_bytes=MTU_BYTES):
        self.capacity_pkts = capacity_pkts
        self.quantum_bytes = quantum_bytes
        self.weight_abc = 1.0
        self._tags = (ABC_QUEUE, LEGACY_QUEUE)
        self._queues = {t: deque() for t in self._tags}
        self._deficit = {t: 0.0 for t in self._tags}
        self._ptr = 0
        self._fresh_visit = True

    def _weight(self, tag):
        return self.weight_abc if tag == ABC_QUEUE else 1.0 - self.weight_abc

    def backlog(self, tag=None):
        if tag is not None:
            return len(self._queues[tag])
        return sum(len(q) for q in self._queues.values())

    def enqueue(self, tag, pkt, now) -> Optional[Packet]:
        free = self.capacity_pkts - self.backlog()
        if len(self._queues[tag]) >= self.THRESHOLD_RATIO * free:
            return pkt
        self._queues[tag].append((pkt, now))
        return None

    def dequeue(self, now):
        busy = [t for t in self._tags if self._queues[t]]
        if not busy:
            raise IndexError("dequeue from an empty dual queue")
        if len(busy) == 1:
            tag = busy[0]
            self._deficit = {t: 0.0 for t in self._tags}
            self._ptr = self._tags.index(tag) ^ 1
            self._fresh_visit = True
            pkt, enq = self._queues[tag].popleft()
            return tag, pkt, enq
        while True:
            tag = self._tags[self._ptr]
            if self._fresh_visit:
                self._deficit[tag] += self._weight(tag) * self.quantum_bytes
                self._fresh_visit = False
            head = self._queues[tag][0][0]
            if self._deficit[tag] >= head.size_bytes:
                self._deficit[tag] -= head.size_bytes
                pkt, enq = self._queues[tag].popleft()
                return tag, pkt, enq
            self._ptr ^= 1
            self._fresh_visit = True


_queue_ops = st.lists(st.one_of(
    st.tuples(st.just("enqueue"), st.sampled_from([ABC_QUEUE, LEGACY_QUEUE]),
              st.sampled_from([40, 576, 1000, 1500])),
    st.tuples(st.just("dequeue")),
    st.tuples(st.just("weight"), st.floats(0.0, 1.0)),
), max_size=200)


@settings(max_examples=300, deadline=None)
@given(capacity=st.integers(1, 12), quantum=st.sampled_from([500, 1500, 3000]),
       ops=_queue_ops)
def test_dual_queue_matches_reference(capacity, quantum, ops):
    new, ref = DualQueue(capacity), _ReferenceDualQueue(capacity, quantum)
    new.QUANTUM_BYTES = quantum
    for now, op in enumerate(ops):
        if op[0] == "enqueue":
            _, tag, size = op
            pkt = Packet("f", now, size, EcnCodepoint.ACCEL, now)
            assert (new.enqueue(tag, pkt, now) is pkt) == (ref.enqueue(tag, pkt, now) is pkt)
        elif op[0] == "dequeue":
            if ref.backlog() == 0:
                try:
                    new.dequeue(now)
                except IndexError:
                    pass
                else:
                    raise AssertionError("dequeue from an empty queue must raise")
            else:
                got, want = new.dequeue(now), ref.dequeue(now)
                assert got[0] == want[0] and got[1] is want[1] and got[2] == want[2]
        else:
            new.weight_abc = ref.weight_abc = op[1]
        assert new.backlog() == ref.backlog()
        assert new.backlog() == new.backlog(ABC_QUEUE) + new.backlog(LEGACY_QUEUE)
        for tag in (ABC_QUEUE, LEGACY_QUEUE):
            assert new.backlog(tag) == ref.backlog(tag)


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
