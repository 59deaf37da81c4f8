"""The receiver's one-body ACK generation against its earlier composition.

``_ReferenceEchoState`` keeps the earlier ``on_packet``, which absorbed a
packet through ``_absorb`` and built each ACK through ``_emit`` (both kept
here).  Random mark and ECN streams, with delayed-ACK flushes between
packets, must give the same ACKs and leave the same state from both, for
coalesce factors 1 to 4.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from accelbrake.core import ACCEL, BRAKE, ECN_SET, Ack, EcnCodepoint, Packet
from accelbrake.receiver import EchoState


class _ReferenceEchoState(EchoState):
    def on_packet(self, pkt, now):
        ecn = pkt.ecn
        if ecn is ECN_SET:
            self.ece_pending = True
        acks = []
        if (ecn is ACCEL or ecn is BRAKE) and ecn is not self.last_mark:
            if self.pending_count > 0:
                acks.append(self._emit(now))
            self.last_mark = ecn
            self._absorb(pkt)
            acks.append(self._emit(now))
        else:
            self._absorb(pkt)
            if self.pending_count >= self.coalesce:
                acks.append(self._emit(now))
        return acks

    def flush(self, now):
        if self.pending_count == 0:
            return None
        return self._emit(now)

    def _absorb(self, pkt):
        self.pending_count += 1
        self.pending_bytes += pkt.size_bytes
        if pkt.seq > self.highest_seq:
            self.highest_seq = pkt.seq

    def _emit(self, now):
        ack = Ack(flow_id=self.flow_id, acked_seq=self.highest_seq,
                  bytes_newly_acked=self.pending_bytes, echo_mark=self.last_mark,
                  ece=self.ece_pending, recv_time=now)
        self.pending_count = 0
        self.pending_bytes = 0
        self.ece_pending = False
        return ack


# A packet's sequence number is drawn around the highest seen so far, so
# streams hold reordering, duplicates and holes.
_steps = st.lists(st.one_of(
    st.tuples(st.just("packet"), st.integers(-3, 4), st.sampled_from([40, 576, 1500]),
              st.sampled_from(list(EcnCodepoint))),
    st.tuples(st.just("packet"), st.integers(-3, 4), st.sampled_from([40, 576, 1500]),
              st.sampled_from(list(EcnCodepoint))),
    st.tuples(st.just("flush")),
), max_size=150)


@settings(max_examples=300, deadline=None)
@given(coalesce=st.integers(1, 4), steps=_steps)
def test_echo_matches_reference(coalesce, steps):
    new, ref = EchoState("f", coalesce), _ReferenceEchoState("f", coalesce)
    for now, step in enumerate(steps):
        if step[0] == "packet":
            _, offset, size, ecn = step
            seq = max(0, ref.highest_seq + offset)
            got = new.on_packet(Packet("f", seq, size, ecn, 0), now)
            want = ref.on_packet(Packet("f", seq, size, ecn, 0), now)
        else:
            got, want = new.flush(now), ref.flush(now)
        assert got == want
        assert vars(new) == vars(ref)
