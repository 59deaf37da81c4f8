"""The engine's event shortcuts against engines that push every event.

``Simulation._on_dequeue`` runs a delivery at once when the last hop has
no delay and no other event is due at the same microsecond, instead of
pushing it and popping it straight back.  ``_AlwaysPush`` keeps the
earlier handler, which pushes every delivery.

The engine pushes one event per send burst, whose handler runs the
packets' hop-0 arrivals in order.  ``_PerPacketSends`` keeps the earlier
dispatch, which pushes one arrival per packet, and the earlier ACK
handler, which dispatched each ACK's sends through ``_dispatch_sends``.

``Simulation._on_deliver`` pushes one event per ACK emission (the one or
two ACKs the receiver returns for a packet), whose handler runs each
ACK's reaction in order.  ``_PerAckEvents`` keeps the earlier handler,
which pushes one event per ACK.

``_Recording`` logs a burst's arrivals and an emission's ACKs one entry
each, before the handler runs them: nothing they do runs another logged
handler, so the log reads as it would with one event each.

Random topologies rich in same-microsecond ties must run the same
handlers in the same order and give the same timeline and the same
census from each engine and its reference.
"""

import hashlib
from collections import Counter
from heapq import heappush
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from accelbrake.config import load_scenario
from accelbrake.core import MTU_BITS
from accelbrake.engine import (DELACK_TIMEOUT_US, FlowSpec, HopSpec, ShortFlowLoad, Simulation,
                               Topology)
from accelbrake.links import FixedLink, TraceLink
from accelbrake.metrics import report

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


class _Recording(Simulation):
    """Records every packet-path handler call, in the order they run."""

    def __init__(self, *args, **kwargs):
        self.calls = []
        super().__init__(*args, **kwargs)

    def _on_send(self, pkts):
        self.calls.extend((self.now, "arrive", 0, pkt.flow_id, pkt.seq) for pkt in pkts)
        super()._on_send(pkts)

    def _on_arrive(self, hop_idx, pkt):
        self.calls.append((self.now, "arrive", hop_idx, pkt.flow_id, pkt.seq))
        super()._on_arrive(hop_idx, pkt)

    def _on_dequeue(self, hop_idx):
        self.calls.append((self.now, "dequeue", hop_idx))
        super()._on_dequeue(hop_idx)

    def _on_deliver(self, pkt):
        self.calls.append((self.now, "deliver", pkt.flow_id, pkt.seq))
        super()._on_deliver(pkt)

    def _on_ack(self, runtime, acks):
        self._record_acks(acks)
        super()._on_ack(runtime, acks)

    def _record_acks(self, acks):
        self.calls.extend((self.now, "ack", ack.flow_id, ack.acked_seq) for ack in acks)

    def _on_delack(self, runtime, epoch):
        self.calls.append((self.now, "delack", runtime.sender.flow_id, epoch))
        super()._on_delack(runtime, epoch)


class _AlwaysPush(_Recording):
    def _on_dequeue(self, hop_idx):
        self.calls.append((self.now, "dequeue", hop_idx))
        router = self.routers[hop_idx]
        if router.backlog() == 0:
            self._busy[hop_idx] = False
            return
        now = self.now
        pkt, enqueued_at = router.on_dequeue(now)
        hop, stats = self._hops[hop_idx]
        stats.dequeued_bytes += pkt.size_bytes
        pkt.hop_trace.extend((enqueued_at, now))
        arrival = now + hop.delay_to_next_us
        if hop_idx + 1 < len(self.routers):
            self._push(arrival, self._on_arrive, (hop_idx + 1, pkt))
        else:
            self._push(arrival, self._on_deliver, (pkt,))
        t = hop.link.next_delivery(now, after=True)
        if t is None:
            self._busy[hop_idx] = False
        else:
            self._push(t, self._on_dequeue, (hop_idx,))


class _PerPacketSends(_Recording):
    def _on_ack(self, runtime, acks):
        self._record_acks(acks)
        for ack in acks:
            self._dispatch_sends(runtime, runtime.sender.on_ack(ack, self.now))

    def _dispatch_sends(self, runtime, pkts):
        runtime.live += len(pkts)
        at = self.now + runtime.fwd_delay_us
        for pkt in pkts:
            self._push(at, self._on_arrive, (0, pkt))
        if runtime.sender.unacked and not runtime.rto_armed:
            runtime.rto_armed = True
            self._push(self.now + runtime.rto_us, self._on_rto, (runtime,))
        if not runtime.live:
            self._retire_if_finished(runtime)


class _PerAckEvents(_Recording):
    def _on_deliver(self, pkt):
        self.calls.append((self.now, "deliver", pkt.flow_id, pkt.seq))
        now = self.now
        self.log.record_delivery(pkt.flow_id, pkt.seq, pkt.size_bytes, pkt.send_time,
                                 now, pkt.hop_trace)
        runtime = self.flows[pkt.flow_id]
        runtime.live -= 1
        echo = runtime.echo
        acks = echo.on_packet(pkt, now)
        if acks:
            runtime.delack_epoch += 1
            for ack in acks:
                self._push(now + runtime.rev_delay_us, self._on_ack, (runtime, (ack,)))
        elif echo.pending_count > 0:
            self._push(now + DELACK_TIMEOUT_US, self._on_delack,
                       (runtime, runtime.delack_epoch))
        if not runtime.live:
            self._retire_if_finished(runtime)


def _timeline_digest(log):
    h = hashlib.sha256()
    for r in log.deliveries:
        hops = ";".join(f"{hop},{enq},{deq}" for hop, enq, deq in r.hops)
        h.update(f"{r.flow_id},{r.seq},{r.deliver_time},{hops}\n".encode())
    for d in log.drops:
        h.update(f"drop,{d.flow_id},{d.seq},{d.hop_id},{d.time}\n".encode())
    return h.hexdigest()


@st.composite
def _tied_topologies(draw):
    """Topologies whose events often land on the same microsecond.

    One tick per draw: fixed links serialize an MTU in one or two ticks,
    trace links deliver on whole milliseconds (a whole number of ticks),
    and every delay is a small whole number of ticks, often none, so
    events cascade within one instant.  All flows of a draw may share one
    reverse delay, and the last hop has no delay most of the time.
    """
    tick = draw(st.sampled_from([250, 500, 1_000]))
    delays = st.sampled_from([0, 0, 1, 1, 2, 4, 8]).map(lambda k: k * tick)
    fixed = st.sampled_from([1, 1, 2]).map(lambda k: FixedLink(MTU_BITS * 1e6 / (k * tick)))
    trace = st.sets(st.integers(1, 6), min_size=1).map(lambda ms: TraceLink(sorted(ms)))
    links = st.one_of(fixed, trace)
    n_hops = draw(st.integers(1, 3))
    hops = []
    for i in range(n_hops):
        last = i == n_hops - 1
        delay = draw(st.one_of(st.just(0), delays)) if last else draw(delays)
        hops.append(HopSpec(f"h{i}", draw(links), kind=draw(st.sampled_from(["abc", "droptail"])),
                            buffer_pkts=draw(st.integers(1, 30)), delay_to_next_us=delay))
    shared_rev = draw(st.one_of(st.none(), delays))
    flows = [FlowSpec(f"f{j}", draw(st.sampled_from(["abc", "cubic"])),
                      start_us=draw(st.integers(0, 5).map(lambda k: 10 * k * tick)),
                      fwd_delay_us=draw(delays),
                      rev_delay_us=shared_rev if shared_rev is not None else draw(delays))
             for j in range(draw(st.integers(1, 4)))]
    shorts = draw(st.none() | st.builds(ShortFlowLoad, st.sampled_from([1e6, 4e6]),
                                        st.integers(1_000, 30_000), delays, delays))
    return Topology(hops, flows, shorts)


@settings(max_examples=100, deadline=None)
@given(topo=_tied_topologies(), seed=st.integers(0, 3),
       coalesce=st.integers(1, 4), duration_us=st.integers(100_000, 600_000))
def test_inline_delivery_matches_always_push(topo, seed, coalesce, duration_us):
    new = _Recording(topo, duration_us, seed=seed, receiver_coalesce=coalesce)
    old = _AlwaysPush(topo, duration_us, seed=seed, receiver_coalesce=coalesce)
    log, old_log = new.run(), old.run()
    # The same handlers ran in the same order: an inline delivery takes the
    # place the pushed one would have had.
    assert new.calls == old.calls
    assert _timeline_digest(log) == _timeline_digest(old_log)
    assert report(log) == report(old_log)
    assert new.census() == old.census()


@settings(max_examples=100, deadline=None)
@given(topo=_tied_topologies(), seed=st.integers(0, 3),
       coalesce=st.integers(1, 4), duration_us=st.integers(100_000, 600_000))
def test_send_bursts_match_per_packet_arrivals(topo, seed, coalesce, duration_us):
    new = _Recording(topo, duration_us, seed=seed, receiver_coalesce=coalesce)
    old = _PerPacketSends(topo, duration_us, seed=seed, receiver_coalesce=coalesce)
    log, old_log = new.run(), old.run()
    # Every arrival, drop and delivery happens in the same order; the
    # census counts the packets of the bursts still in the heap.
    assert new.calls == old.calls
    assert _timeline_digest(log) == _timeline_digest(old_log)
    assert report(log) == report(old_log)
    assert new.census() == old.census()
    assert {fid: rt.live for fid, rt in new.flows.items()} == \
        {fid: rt.live for fid, rt in old.flows.items()}


@settings(max_examples=100, deadline=None)
@given(topo=_tied_topologies(), seed=st.integers(0, 3),
       coalesce=st.integers(1, 4), duration_us=st.integers(100_000, 600_000))
def test_ack_emissions_match_per_ack_events(topo, seed, coalesce, duration_us):
    new = _Recording(topo, duration_us, seed=seed, receiver_coalesce=coalesce)
    old = _PerAckEvents(topo, duration_us, seed=seed, receiver_coalesce=coalesce)
    log, old_log = new.run(), old.run()
    # Every ACK reaches its sender at the same place in the event order.
    assert new.calls == old.calls
    assert _timeline_digest(log) == _timeline_digest(old_log)
    assert report(log) == report(old_log)
    assert new.census() == old.census()


def test_serial_bottlenecks_emit_two_ack_emissions():
    """A mark change flushes the old run: some emissions carry two ACKs."""
    cfg = load_scenario(str(SCENARIO_DIR / "serial_bottlenecks.yaml"))
    sim = Simulation(cfg.topology, 2_000_000, seed=cfg.seed,
                     receiver_coalesce=cfg.receiver_coalesce)
    sizes = Counter()

    def counting_push(heap, item):
        if item[2] == sim._on_ack:
            sizes[len(item[3][1])] += 1
        heappush(heap, item)

    with mock.patch("accelbrake.engine.heappush", counting_push):
        sim.run()
    assert set(sizes) == {1, 2} and sizes[2] > 100


def test_serial_bottlenecks_take_both_delivery_branches():
    """Most deliveries run inline; one due at a busy instant is pushed."""
    cfg = load_scenario(str(SCENARIO_DIR / "serial_bottlenecks.yaml"))
    sim = Simulation(cfg.topology, 2_000_000, seed=cfg.seed,
                     receiver_coalesce=cfg.receiver_coalesce)
    pushed = []

    def counting_push(heap, item):
        if item[2] == sim._on_deliver:
            pushed.append(item)
        heappush(heap, item)

    with mock.patch("accelbrake.engine.heappush", counting_push):
        log = sim.run()
    delivered = len(log.seqs)
    assert 0 < len(pushed) < delivered / 10
