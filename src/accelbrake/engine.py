"""Deterministic discrete-event loop tying senders, hops and receivers together.

Topologies are single-path: every flow's packets enter hop 0, traverse
the hops in order, and are delivered to a receiver that sends ACKs back
over a pure propagation delay (the reverse path never queues).  Events
firing at the same microsecond are processed in scheduling order, and
all randomness (short-flow arrivals) comes from one seeded generator, so
two runs with the same seed produce identical logs.

A packet leaving a last hop that has no delay is delivered at the same
microsecond.  When no other event is due then, that delivery would be
the next event popped anyway, so the dequeue handler runs it directly,
after its own pushes, instead of pushing it and popping it straight
back; otherwise it is pushed like any other event.  Either way it runs
in scheduling order.

ACK clocking is emergent: the engine never paces a sender directly, it
only delivers ACKs; transmissions happen when a window opens.
"""

from __future__ import annotations

import itertools
import os
import random
import re
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Optional

from .core import Packet, SimTime, US_PER_S, check_fields
from .legacy import DroptailRouter, short_flow_schedule
from .links import LinkProcess, OracleRateView
from .metrics import DropRecord, HopStats, MetricsLog
from .receiver import EchoState
from .router import AbcParams, AbcRouter
from .sender import AbcSender, CubicSender, FlowSender

DELACK_TIMEOUT_US = 40_000


def _check_id(name: str, value: str) -> None:
    """Ids name output files (``flows/<id>.csv``, ``routers/<hop>.csv``) and
    are pasted into ``summary.txt``'s ``key=value`` lines (``hop.<id>.drops=0``)."""
    if value in ("", ".", "..") or any(sep and sep in value for sep in ("/", os.altsep)):
        raise ValueError(f"{name}: must be usable as a file name, got {value!r}")
    # A newline or an '=' would forge summary lines.
    if "=" in value or not value.isprintable():
        raise ValueError(f"{name}: must hold no '=' and no non-printable character, "
                         f"got {value!r}")


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

    def validate(self) -> None:
        _check_id("hop_id", self.hop_id)
        if self.kind not in ("abc", "droptail"):
            raise ValueError(f"kind: unknown kind {self.kind!r}, expected abc or droptail")
        if self.ecn_threshold_pkts is not None and self.kind != "droptail":
            raise ValueError("ecn_threshold_pkts: only valid on droptail hops")
        if self.fixed_fraction is not None and self.kind != "abc":
            raise ValueError("fixed_fraction: only valid on abc hops")
        check_fields(self, buffer_pkts=">= 1", oracle_window_us="> 0",
                     ecn_threshold_pkts=">= 1", fixed_fraction=(">= 0", "<= 1"),
                     delay_to_next_us=">= 0", initial_weight=(">= 0", "<= 1"))
        try:
            self.abc_params.validate()
        except ValueError as exc:
            raise ValueError(f"abc_params: {exc}") from exc


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

    def validate(self) -> None:
        _check_id("flow_id", self.flow_id)
        if self.scheme not in ("abc", "cubic"):
            raise ValueError(f"scheme: unknown scheme {self.scheme!r}, expected abc or cubic")
        check_fields(self, start_us=">= 0", fwd_delay_us=">= 0", rev_delay_us=">= 0",
                     initial_window=">= 1", bytes_budget=">= 1")
        if self.stop_us is not None and not self.stop_us > self.start_us:
            raise ValueError("stop_us: must be after start_us")


@dataclass
class ShortFlowLoad:
    """Poisson stream of small legacy transfers sharing the path."""

    load_bps: float
    flow_bytes: int = 10_000
    fwd_delay_us: SimTime = 10_000
    rev_delay_us: SimTime = 40_000
    initial_window: float = 10.0

    def validate(self) -> None:
        check_fields(self, load_bps=">= 0", flow_bytes=">= 1", fwd_delay_us=">= 0",
                     rev_delay_us=">= 0", initial_window=">= 1")


@dataclass
class Topology:
    hops: list
    flows: list
    shorts: Optional[ShortFlowLoad] = None

    def validate(self) -> None:
        """Check every spec, naming it by its place (``flows[1].stop_us: ...``), then the ids."""
        if not self.hops:
            raise ValueError("topology needs at least one hop")
        if not self.flows and not (self.shorts is not None and self.shorts.load_bps > 0):
            raise ValueError("topology needs at least one flow")
        specs = [(f"hops[{i}]", hop) for i, hop in enumerate(self.hops)]
        specs += [(f"flows[{i}]", flow) for i, flow in enumerate(self.flows)]
        specs += [("shorts", self.shorts)] if self.shorts is not None else []
        for path, spec in specs:
            try:
                spec.validate()
            except ValueError as exc:
                raise ValueError(f"{path}.{exc}") from exc
        for kind, ids in (("hop", [h.hop_id for h in self.hops]),
                          ("flow", [f.flow_id for f in self.flows])):
            for i, name in enumerate(ids):
                if name in ids[:i]:
                    raise ValueError(f"duplicate {kind} id {name!r}")
        # _spawn_short names its flows short000001, short000002, ...
        if self.shorts is not None and self.shorts.load_bps > 0:
            for flow in self.flows:
                if re.fullmatch(r"short[0-9]{6,}", flow.flow_id):
                    raise ValueError(f"flow id {flow.flow_id!r} is reserved for short flows")

    def path_rtt_us(self, flow) -> SimTime:
        """Base round trip of a FlowSpec."""
        inter = sum(h.delay_to_next_us for h in self.hops)
        return flow.fwd_delay_us + inter + flow.rev_delay_us


@dataclass
class ScenarioConfig:
    """Everything needed to construct and run one simulation."""

    topology: Topology
    duration_us: SimTime
    seed: int = 0
    sample_interval_us: SimTime = 0
    receiver_coalesce: int = 2
    log_router_rows: bool = False

    def validate(self) -> None:
        check_fields(self, duration_us=">= 0", seed=">= 0", sample_interval_us=">= 0",
                     receiver_coalesce=">= 1")
        self.topology.validate()


@dataclass
class _FlowRuntime:
    """Everything the engine keeps for one flow: both ends and their timers.

    ``live`` counts the flow's packets that are queued at a hop or on
    their way to one or to the receiver: sent, and neither delivered nor
    dropped.
    """

    sender: FlowSender
    echo: EchoState
    fwd_delay_us: SimTime
    rev_delay_us: SimTime
    rto_us: SimTime
    rto_armed: bool = False
    prev_sample_bytes: int = 0
    delack_epoch: int = 0
    short: bool = False
    live: int = 0


class Simulation:
    """One run of a topology for ``duration_us`` simulated microseconds.

    ``flows`` maps a flow id to its runtime.  It holds every long flow of
    the topology and the short flows that are not finished yet: a short
    flow is retired from it once its sender is done and none of its
    packets is queued or in flight (see ``_retire_if_finished``), so the
    memory a run keeps follows the transfers still under way.
    ``census()`` still counts the packets retired flows sent.
    """

    def __init__(self, topology: Topology, duration_us: SimTime, seed: int = 0,
                 flow_sample_interval_us: SimTime = 0, log_router_rows: bool = False,
                 receiver_coalesce: int = 2):
        # The arguments obey the same rules as a scenario file's.
        ScenarioConfig(topology, duration_us, seed=seed,
                       sample_interval_us=flow_sample_interval_us,
                       receiver_coalesce=receiver_coalesce,
                       log_router_rows=log_router_rows).validate()
        self.topology = topology
        self.duration_us = int(duration_us)
        self.seed = seed
        self.receiver_coalesce = receiver_coalesce
        self._rng = random.Random(seed)
        # The per-packet handlers, bound once: a push then allocates no
        # bound method.  A subclass's override is what gets bound.
        self._on_arrive = self._on_arrive
        self._on_dequeue = self._on_dequeue
        self._on_deliver = self._on_deliver
        self._on_delack = self._on_delack
        self._on_ack = self._on_ack
        self._heap: list = []
        # Tie-break for events at the same microsecond: scheduling order.
        self._counter = itertools.count()
        self.now: SimTime = 0

        self.routers: list = []
        self._busy: list[bool] = []
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
            stats = self.log.hop_stats[hop.hop_id] = HopStats()
            self._hops.append((hop, stats))

        self.flows: dict[str, _FlowRuntime] = {}
        self._retired_sent = 0  # next_seq summed over retired short flows
        for spec in topology.flows:
            runtime = self._add_flow(spec)
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

    # -- setup helpers -------------------------------------------------------

    def _add_flow(self, spec: FlowSpec, short: bool = False) -> _FlowRuntime:
        """Build a flow's sender and receiver."""
        flow_id = spec.flow_id
        rtt = self.topology.path_rtt_us(spec)
        if spec.scheme == "abc":
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
                               rto_us=max(4 * rtt, 500_000), short=short)
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
        if victim is not pkt and not self._busy[hop_idx]:
            self._schedule_dequeue(hop_idx)
        if victim is not None:
            hop_id = self._hops[hop_idx][0].hop_id
            self.log.record_drop(DropRecord(victim.flow_id, victim.seq, hop_id, self.now))
            runtime = self.flows[victim.flow_id]
            runtime.live -= 1
            if not runtime.live:
                self._retire_if_finished(runtime)

    def _schedule_dequeue(self, hop_idx: int) -> None:
        """Wake an idle hop at its link's next opportunity."""
        # A hop goes idle only at a wake-up strictly after its last dequeue
        # (or for good), so an opportunity at now has not been used.
        t = self._hops[hop_idx][0].link.next_delivery(self.now)
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
        hop, stats = self._hops[hop_idx]
        stats.dequeued_bytes += pkt.size_bytes
        pkt.hop_trace.extend((enqueued_at, now))
        heap = self._heap
        counter = self._counter
        arrival = now + hop.delay_to_next_us
        deliver_now = False
        if hop_idx + 1 < len(self.routers):
            heappush(heap, (arrival, next(counter), self._on_arrive, (hop_idx + 1, pkt)))
        elif arrival == now and not (heap and heap[0][0] <= now):
            # No other event is due at now, so the delivery pushed here
            # would be the next one popped: run it below, after this
            # handler's own pushes, instead of round-tripping the heap.
            deliver_now = True
        else:
            heappush(heap, (arrival, next(counter), self._on_deliver, (pkt,)))
        t = hop.link.next_delivery(now, after=True)
        if t is None:
            self._busy[hop_idx] = False
        else:
            heappush(heap, (t, next(counter), self._on_dequeue, (hop_idx,)))
        if deliver_now:
            self._on_deliver(pkt)

    def _on_deliver(self, pkt: Packet) -> None:
        now = self.now
        self.log.record_delivery(pkt.flow_id, pkt.seq, pkt.size_bytes, pkt.send_time,
                                 now, pkt.hop_trace)
        runtime = self.flows[pkt.flow_id]
        runtime.live -= 1
        echo = runtime.echo
        acks = echo.on_packet(pkt, now)
        if acks:
            runtime.delack_epoch += 1
            at = now + runtime.rev_delay_us
            for ack in acks:
                heappush(self._heap, (at, next(self._counter), self._on_ack, (runtime, ack)))
        elif echo.pending_count > 0:
            heappush(self._heap, (now + DELACK_TIMEOUT_US, next(self._counter),
                                  self._on_delack, (runtime, runtime.delack_epoch)))
        if not runtime.live:
            self._retire_if_finished(runtime)

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
        runtime.live += len(pkts)
        at = self.now + runtime.fwd_delay_us
        for pkt in pkts:
            heappush(self._heap, (at, next(self._counter), self._on_arrive, (0, pkt)))
        if runtime.sender.unacked and not runtime.rto_armed:
            runtime.rto_armed = True
            self._push(self.now + runtime.rto_us, self._on_rto, (runtime,))
        # After an ACK or a timeout, the sender may have just finished.
        if not runtime.live:
            self._retire_if_finished(runtime)

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

    def _retire_if_finished(self, runtime: _FlowRuntime) -> None:
        """Delete a finished short flow, none of whose packets is live, from ``flows``.

        Nothing can look the flow up again: ``_on_deliver`` and the drop
        path find a runtime through a live packet, and a sender that is
        done has spent its budget, so it never transmits again.  Its
        pending ACK, delayed-ACK and RTO events hold the runtime itself and
        still run as before; they send nothing, so retiring a flow changes
        no event.  A late event may call this again on a retired runtime,
        which the registration check makes harmless.  A flow whose window
        ever broke the cap stays, so its ``cap_violations`` stays visible.
        """
        sender = runtime.sender
        if (runtime.short and sender.done() and not sender.cap_violations
                and self.flows.get(sender.flow_id) is runtime):
            del self.flows[sender.flow_id]
            self._retired_sent += sender.next_seq

    # -- housekeeping ----------------------------------------------------------

    def _on_weights(self, router: AbcRouter) -> None:
        router.update_weights(self.now)
        self._push(self.now + router.params.weight_interval_us, self._on_weights, (router,))

    def _spawn_short(self) -> None:
        self._short_count += 1
        load = self.topology.shorts
        spec = FlowSpec(f"short{self._short_count:06d}", "cubic",
                        fwd_delay_us=load.fwd_delay_us, rev_delay_us=load.rev_delay_us,
                        initial_window=load.initial_window, bytes_budget=load.flow_bytes)
        self._on_start(self._add_flow(spec, short=True))

    def _on_sample(self) -> None:
        interval = self.flow_sample_interval_us
        for spec in self.topology.flows:
            runtime = self.flows[spec.flow_id]
            sender = runtime.sender
            rate = (sender.bytes_sent - runtime.prev_sample_bytes) * 8 * US_PER_S / interval
            runtime.prev_sample_bytes = sender.bytes_sent
            w_abc = round(sender.w_abc, 4) if sender.w_abc is not None else ""
            self.log.flow_samples.setdefault(spec.flow_id, []).append(
                (self.now, w_abc, round(sender.w_cubic, 4), sender.inflight, round(rate, 1)))
        self._push(self.now + interval, self._on_sample, ())

    # -- diagnostics ------------------------------------------------------------

    def census(self) -> dict:
        """Packet conservation snapshot: sent = delivered + dropped + queued + in flight.

        ``sent`` includes the packets of short flows already retired from
        ``flows``; ``in_flight`` is counted from the event heap.
        """
        queued = sum(r.backlog() for r in self.routers)
        moving = (self._on_arrive, self._on_deliver)
        in_flight = sum(1 for _, _, handler, _ in self._heap if handler in moving)
        return {
            "sent": self._retired_sent + sum(rt.sender.next_seq for rt in self.flows.values()),
            "delivered": len(self.log.seqs),
            "dropped": len(self.log.drops),
            "queued": queued,
            "in_flight": in_flight,
        }
