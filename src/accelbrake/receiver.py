"""Receiver-side feedback: echoing marks back to the sender.

The receiver coalesces ACKs (one per ``coalesce`` packets, DCTCP-style)
but flushes immediately whenever the accel/brake mark changes, so the
sender always learns of a regime switch within one ACK.  A mark change
first acknowledges the packets of the old run under the old mark, then
acknowledges the packet that switched the run under the new mark --
byte counts are therefore attributed to the exact mark the router chose.

Classic ECN congestion marks ("ECN set") ride along: they raise an
echo-congestion flag on the next emitted ACK without disturbing the
accel/brake run bookkeeping.
"""

from __future__ import annotations

from typing import Optional

from .core import ACCEL, BRAKE, ECN_SET, Ack, EcnCodepoint, Packet, SimTime


class EchoState:
    """Per-flow ACK generation state at the receiver."""

    def __init__(self, flow_id: str, coalesce: int = 2):
        if coalesce < 1:
            raise ValueError(f"coalesce factor must be at least 1, got {coalesce}")
        self.flow_id = flow_id
        self.coalesce = coalesce
        self.last_mark = EcnCodepoint.ACCEL
        self.pending_count = 0
        self.pending_bytes = 0
        self.highest_seq = -1
        self.ece_pending = False

    def on_packet(self, pkt: Packet, now: SimTime) -> list[Ack]:
        """Absorb one delivered packet, returning any ACKs to emit now."""
        ecn = pkt.ecn
        if ecn is ECN_SET:
            self.ece_pending = True
        acks: list[Ack] = []
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

    def flush(self, now: SimTime) -> Optional[Ack]:
        """Emit whatever is pending (delayed-ACK timer expiry)."""
        if self.pending_count == 0:
            return None
        return self._emit(now)

    def _absorb(self, pkt: Packet) -> None:
        self.pending_count += 1
        self.pending_bytes += pkt.size_bytes
        if pkt.seq > self.highest_seq:
            self.highest_seq = pkt.seq

    def _emit(self, now: SimTime) -> Ack:
        ack = Ack(
            flow_id=self.flow_id,
            acked_seq=self.highest_seq,
            bytes_newly_acked=self.pending_bytes,
            echo_mark=self.last_mark,
            ece=self.ece_pending,
            recv_time=now,
        )
        self.pending_count = 0
        self.pending_bytes = 0
        self.ece_pending = False
        return ack
