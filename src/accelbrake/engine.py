"""Deterministic discrete-event loop tying senders, hops and receivers together.

Topologies are single-path: every flow's packets enter hop 0, traverse
the hops in order, and are delivered to a receiver that sends ACKs back
over a pure propagation delay (the reverse path never queues).  Events
firing at the same microsecond are processed in scheduling order, and
all randomness (short-flow arrivals) comes from one seeded generator, so
two runs with the same seed produce identical logs.

ACK clocking is emergent: the engine never paces a sender directly, it
only delivers ACKs; transmissions happen when a window opens.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Optional

from .core import Packet, SimTime, US_PER_S
from .legacy import DroptailRouter, short_flow_schedule
from .links import LinkProcess, OracleRateView
from .metrics import DropRecord, HopStats, MetricsLog
from .receiver import EchoState
from .router import AbcParams, AbcRouter
from .sender import AbcSender, CubicSender, FlowSender

DELACK_TIMEOUT_US = 40_000


@dataclass
class HopSpec:
    """One bottleneck hop: a queue discipline attached to a link process."""

    hop_id: str
    link: LinkProcess
    kind: str = "abc"  # "abc" | "droptail"
    buffer_pkts: int = 250
    abc_params: AbcParams = field(default_factory=AbcParams)
    oracle_window_us: SimTime = 20_000
    ecn_threshold_pkts: Optional[int] = None
    fixed_fraction: Optional[float] = None
    delay_to_next_us: SimTime = 0
    initial_weight: float = 1.0


@dataclass
class FlowSpec:
    flow_id: str
    scheme: str = "abc"  # "abc" | "cubic"
    start_us: SimTime = 0
    stop_us: Optional[SimTime] = None
    fwd_delay_us: SimTime = 10_000
    rev_delay_us: SimTime = 40_000
    initial_window: float = 10.0
    additive_increase: bool = True
    bytes_budget: Optional[int] = None


@dataclass
class ShortFlowLoad:
    """Poisson stream of small legacy transfers sharing the path."""

    load_bps: float
    flow_bytes: int = 10_000
    fwd_delay_us: SimTime = 10_000
    rev_delay_us: SimTime = 40_000
    initial_window: float = 10.0


@dataclass
class Topology:
    hops: list
    flows: list
    shorts: Optional[ShortFlowLoad] = None

    def validate(self) -> None:
        if not self.hops:
            raise ValueError("topology needs at least one hop")
        if not self.flows and self.shorts is None:
            raise ValueError("topology needs at least one flow")
        seen = set()
        for hop in self.hops:
            if hop.kind not in ("abc", "droptail"):
                raise ValueError(f"hop {hop.hop_id!r}: unknown kind {hop.kind!r}")
            if hop.hop_id in seen:
                raise ValueError(f"duplicate hop id {hop.hop_id!r}")
            seen.add(hop.hop_id)
        ids = set()
        for flow in self.flows:
            if flow.scheme not in ("abc", "cubic"):
                raise ValueError(f"flow {flow.flow_id!r}: unknown scheme {flow.scheme!r}")
            if flow.flow_id in ids:
                raise ValueError(f"duplicate flow id {flow.flow_id!r}")
            ids.add(flow.flow_id)

    def path_rtt_us(self, flow) -> SimTime:
        """Base round trip of a FlowSpec, or of the ShortFlowLoad's transfers."""
        inter = sum(h.delay_to_next_us for h in self.hops)
        return flow.fwd_delay_us + inter + flow.rev_delay_us


@dataclass
class _FlowRuntime:
    """Everything the engine keeps for one flow: both ends and their timers."""

    sender: FlowSender
    echo: EchoState
    fwd_delay_us: SimTime
    rev_delay_us: SimTime
    rto_us: SimTime
    is_short: bool = False
    rto_armed: bool = False
    prev_sample_bytes: int = 0
    delack_epoch: int = 0


class Simulation:
    def __init__(self, topology: Topology, duration_us: SimTime, seed: int = 0,
                 flow_sample_interval_us: SimTime = 0, log_router_rows: bool = False,
                 receiver_coalesce: int = 2):
        topology.validate()
        if duration_us < 0:
            raise ValueError(f"duration must be non-negative, got {duration_us}")
        self.topology = topology
        self.duration_us = int(duration_us)
        self.seed = seed
        self.receiver_coalesce = receiver_coalesce
        self._rng = random.Random(seed)
        self._heap: list = []
        # Tie-break for events at the same microsecond: scheduling order.
        self._counter = itertools.count()
        self.now: SimTime = 0

        self.routers: list = []
        self._busy: list[bool] = []
        self._last_dequeue: list[SimTime] = []
        self.log = MetricsLog(duration_us=self.duration_us, seed=seed)
        # (HopSpec, HopStats) per hop index, for the per-packet handlers.
        self._hops: list[tuple[HopSpec, HopStats]] = []
        for hop in topology.hops:
            if hop.kind == "abc":
                router = AbcRouter(hop.hop_id, hop.abc_params,
                                   OracleRateView(hop.link, hop.oracle_window_us),
                                   buffer_pkts=hop.buffer_pkts,
                                   fixed_fraction=hop.fixed_fraction,
                                   initial_weight=hop.initial_weight,
                                   log_rows=log_router_rows)
                if log_router_rows:
                    self.log.router_samples[hop.hop_id] = router.rows
                self._push(hop.abc_params.weight_interval_us, self._on_weights, (router,))
            else:
                router = DroptailRouter(hop.hop_id, hop.buffer_pkts, hop.ecn_threshold_pkts)
            self.routers.append(router)
            self._busy.append(False)
            self._last_dequeue.append(-1)
            stats = self.log.hop_stats[hop.hop_id] = HopStats()
            self._hops.append((hop, stats))

        self.flows: dict[str, _FlowRuntime] = {}
        for spec in topology.flows:
            runtime = self._add_flow(spec.flow_id, spec)
            self._push(spec.start_us, self._on_start, (runtime,))
            if spec.stop_us is not None:
                self._push(spec.stop_us, self._on_stop, (runtime,))

        self._short_count = 0
        if topology.shorts is not None and topology.shorts.load_bps > 0:
            arrivals = short_flow_schedule(topology.shorts.load_bps, topology.shorts.flow_bytes,
                                           self.duration_us, self._rng)
            for t in arrivals:
                self._push(t, self._spawn_short, ())

        self.flow_sample_interval_us = int(flow_sample_interval_us)
        if self.flow_sample_interval_us > 0:
            self._push(self.flow_sample_interval_us, self._on_sample, ())

        self._sent = 0
        self._delivered = 0
        self._dropped = 0

    # -- setup helpers -------------------------------------------------------

    def _add_flow(self, flow_id: str, spec) -> _FlowRuntime:
        """Build a flow's sender and receiver; ``spec`` is a FlowSpec or the ShortFlowLoad."""
        rtt = self.topology.path_rtt_us(spec)
        is_short = isinstance(spec, ShortFlowLoad)
        if is_short:
            sender = CubicSender(flow_id, spec.initial_window, rtt, bytes_budget=spec.flow_bytes)
        elif spec.scheme == "abc":
            sender = AbcSender(flow_id, spec.initial_window, rtt,
                               additive_increase=spec.additive_increase,
                               bytes_budget=spec.bytes_budget)
        else:
            sender = CubicSender(flow_id, spec.initial_window, rtt,
                                 bytes_budget=spec.bytes_budget)
        # The RTO is a liveness guard only: it fires when an entire window
        # (data or ACKs) vanished, e.g. a full tail-drop burst.  Generous on
        # purpose.
        runtime = _FlowRuntime(sender, EchoState(flow_id, self.receiver_coalesce),
                               spec.fwd_delay_us, spec.rev_delay_us,
                               rto_us=max(4 * rtt, 500_000), is_short=is_short)
        self.flows[flow_id] = runtime
        return runtime

    def _push(self, time: SimTime, handler, args: tuple) -> None:
        heappush(self._heap, (time, next(self._counter), handler, args))

    # -- main loop ------------------------------------------------------------

    def run(self) -> MetricsLog:
        heap = self._heap
        pop = heappop
        end = self.duration_us
        while heap:
            time, _, handler, args = heap[0]
            if time > end:
                break
            pop(heap)
            self.now = time
            handler(*args)
        self.now = end
        for hop, stats in self._hops:
            stats.opportunity_bytes = hop.link.opportunity_bytes(0, end)
        return self.log

    def _on_start(self, runtime: _FlowRuntime) -> None:
        self._dispatch_sends(runtime, runtime.sender.start(self.now))

    def _on_stop(self, runtime: _FlowRuntime) -> None:
        runtime.sender.stopped = True

    # -- packet path ----------------------------------------------------------

    def _on_arrive(self, hop_idx: int, pkt: Packet) -> None:
        router = self.routers[hop_idx]
        victim = router.enqueue(pkt, self.now)
        if victim is not pkt:
            self._schedule_dequeue_if_idle(hop_idx)
        if victim is not None:
            self._dropped += 1
            hop_id = self._hops[hop_idx][0].hop_id
            self.log.record_drop(DropRecord(victim.flow_id, victim.seq, hop_id, self.now))

    def _schedule_dequeue_if_idle(self, hop_idx: int) -> None:
        if self._busy[hop_idx]:
            return
        link = self._hops[hop_idx][0].link
        t = link.next_delivery(self.now)
        if t is not None and t <= self._last_dequeue[hop_idx]:
            t = link.next_delivery(self.now, after=True)
        if t is None:
            return
        self._busy[hop_idx] = True
        self._push(t, self._on_dequeue, (hop_idx,))

    def _on_dequeue(self, hop_idx: int) -> None:
        router = self.routers[hop_idx]
        if router.backlog() == 0:
            self._busy[hop_idx] = False
            return
        now = self.now
        pkt, enqueued_at = router.on_dequeue(now)
        self._last_dequeue[hop_idx] = now
        hop, stats = self._hops[hop_idx]
        stats.dequeued_bytes += pkt.size_bytes
        stats.dequeues += 1
        pkt.hop_trace.extend((hop.hop_id, enqueued_at, now))
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

    def _on_deliver(self, pkt: Packet) -> None:
        self._delivered += 1
        self.log.record_delivery(pkt.flow_id, pkt.seq, pkt.size_bytes, pkt.send_time,
                                 self.now, pkt.hop_trace)
        runtime = self.flows[pkt.flow_id]
        acks = runtime.echo.on_packet(pkt, self.now)
        if acks:
            runtime.delack_epoch += 1
            for ack in acks:
                self._push(self.now + runtime.rev_delay_us, self._on_ack, (runtime, ack))
        elif runtime.echo.pending_count > 0:
            self._push(self.now + DELACK_TIMEOUT_US, self._on_delack,
                       (runtime, runtime.delack_epoch))

    def _on_delack(self, runtime: _FlowRuntime, epoch: int) -> None:
        if runtime.delack_epoch != epoch:
            return
        ack = runtime.echo.flush(self.now)
        if ack is not None:
            runtime.delack_epoch += 1
            self._push(self.now + runtime.rev_delay_us, self._on_ack, (runtime, ack))

    def _on_ack(self, runtime: _FlowRuntime, ack) -> None:
        self._dispatch_sends(runtime, runtime.sender.on_ack(ack, self.now))

    def _dispatch_sends(self, runtime: _FlowRuntime, pkts: list[Packet]) -> None:
        for pkt in pkts:
            self._sent += 1
            self._push(self.now + runtime.fwd_delay_us, self._on_arrive, (0, pkt))
        if runtime.sender.unacked and not runtime.rto_armed:
            runtime.rto_armed = True
            self._push(self.now + runtime.rto_us, self._on_rto, (runtime,))

    def _on_rto(self, runtime: _FlowRuntime) -> None:
        sender = runtime.sender
        if not sender.unacked:
            runtime.rto_armed = False
            return
        deadline = sender.last_progress + runtime.rto_us
        if deadline > self.now:
            self._push(deadline, self._on_rto, (runtime,))
            return
        runtime.rto_armed = False
        self._dispatch_sends(runtime, sender.on_timeout(self.now))

    # -- housekeeping ----------------------------------------------------------

    def _on_weights(self, router: AbcRouter) -> None:
        router.update_weights(self.now)
        self._push(self.now + router.params.weight_interval_us, self._on_weights, (router,))

    def _spawn_short(self) -> None:
        self._short_count += 1
        runtime = self._add_flow(f"short{self._short_count:06d}", self.topology.shorts)
        self._dispatch_sends(runtime, runtime.sender.start(self.now))

    def _on_sample(self) -> None:
        interval = self.flow_sample_interval_us
        for flow_id, runtime in self.flows.items():
            if runtime.is_short:
                continue
            sender = runtime.sender
            rate = (sender.bytes_sent - runtime.prev_sample_bytes) * 8 * US_PER_S / interval
            runtime.prev_sample_bytes = sender.bytes_sent
            w_abc = round(sender.w_abc, 4) if isinstance(sender, AbcSender) else ""
            self.log.flow_samples.setdefault(flow_id, []).append(
                (self.now, w_abc, round(sender.w_cubic, 4), sender.inflight, round(rate, 1)))
        self._push(self.now + interval, self._on_sample, ())

    # -- diagnostics ------------------------------------------------------------

    def census(self) -> dict:
        """Packet conservation snapshot: sent = delivered + dropped + queued + in flight."""
        queued = sum(r.backlog() for r in self.routers)
        moving = (self._on_arrive, self._on_deliver)
        in_flight = sum(1 for _, _, handler, _ in self._heap if handler in moving)
        return {
            "sent": self._sent,
            "delivered": self._delivered,
            "dropped": self._dropped,
            "queued": queued,
            "in_flight": in_flight,
        }
