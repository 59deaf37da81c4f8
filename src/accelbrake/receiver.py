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

``on_packet`` runs once per delivered packet and builds its ACKs in its
own frame: the only call it makes is the ``Ack`` constructor.  ``flush``,
the delayed-ACK path, builds its ACK the same way.
"""

from __future__ import annotations

from typing import Optional

from .core import ACCEL, BRAKE, ECN_SET, Ack, EcnCodepoint, Packet


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

    def on_packet(self, pkt: Packet) -> list[Ack]:
        """Absorb one delivered packet, returning any ACKs to emit now.

        A packet whose accel/brake mark differs from the current run's
        first flushes the old run (if any) under the old mark, then joins
        the pending count and is acknowledged at once under its own mark.
        Any other packet joins the pending count, and an ACK goes out once
        ``coalesce`` packets are pending.  Every ACK acknowledges what is
        pending and clears it, as ``flush`` does.
        """
        ecn = pkt.ecn
        if ecn is ECN_SET:
            self.ece_pending = True
        acks: list[Ack] = []
        switched = (ecn is ACCEL or ecn is BRAKE) and ecn is not self.last_mark
        if switched:
            if self.pending_count > 0:
                acks.append(Ack(self.flow_id, self.highest_seq, self.pending_bytes,
                                self.last_mark, self.ece_pending))
                self.pending_count = self.pending_bytes = 0
                self.ece_pending = False
            self.last_mark = ecn
        count = self.pending_count + 1
        pending_bytes = self.pending_bytes + pkt.size_bytes
        if pkt.seq > self.highest_seq:
            self.highest_seq = pkt.seq
        if switched or count >= self.coalesce:
            acks.append(Ack(self.flow_id, self.highest_seq, pending_bytes, self.last_mark,
                            self.ece_pending))
            self.pending_count = self.pending_bytes = 0
            self.ece_pending = False
        else:
            self.pending_count = count
            self.pending_bytes = pending_bytes
        return acks

    def flush(self) -> Optional[Ack]:
        """Emit whatever is pending (delayed-ACK timer expiry)."""
        if self.pending_count == 0:
            return None
        ack = Ack(self.flow_id, self.highest_seq, self.pending_bytes, self.last_mark,
                  self.ece_pending)
        self.pending_count = 0
        self.pending_bytes = 0
        self.ece_pending = False
        return ack
