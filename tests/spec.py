"""An executable specification of the simulator's rules.

``SpecSimulation`` runs a ``Topology`` as ``accelbrake.engine.Simulation``
does, takes the same arguments and fills the same run log, but it is
written to be read, not to be fast.  Every packet's arrival at every hop,
every delivery and every ACK is one heap event; events due at the same
microsecond run in the order they were scheduled.  Each rule of the
scheme is one plain function below:

- the router's target rate, ``target_rate``;
- the accelerate fraction and its token bucket, ``accel_fraction`` and
  ``meter``;
- the sender's window step per ACK, ``window_step``;
- the window cap of twice the packets in flight, ``capped``;
- the dual queue's admission and deficit round-robin, ``admits`` and
  ``drr_pick``;
- the receiver's coalesced, mark-split echo, ``echo`` (with the
  delayed-ACK timer in ``SpecSimulation._on_delack``) and the
  retransmission timer, ``SpecSimulation._on_rto``;
- the weight update of the dual queue, ``update_weight``.

It shares with the library only the parts that are not folded for speed:
packets and ACKs (``core``), the links and their capacity oracle, the
Cubic window, the droptail queue, the short-flow schedule, the Space Saving
sketch, max-min water-filling, the spec dataclasses and the run log.

``tests/test_spec_diff.py`` holds the library to this file.  A change
that makes the library faster folds code there and leaves this file as it
is; the spec diff must still pass.
"""

import random
from collections import deque
from heapq import heappop, heappush
from itertools import count

from accelbrake.core import ACCEL, BRAKE, ECN_SET, MTU_BYTES, US_PER_S, Ack, EcnCodepoint, Packet
from accelbrake.engine import FlowSpec
from accelbrake.legacy import CubicWindow, DroptailRouter, short_flow_schedule
from accelbrake.links import OracleRateView
from accelbrake.metrics import DropRecord, HopStats, MetricsLog
from accelbrake.router import water_fill
from accelbrake.topk import SpaceSavingSketch

DELACK_US = 40_000          # a receiver holding a partial batch ACKs it after this
MIN_RTO_US = 500_000        # the retransmission timer: 4 base RTTs, at least this
THRESHOLD_RATIO = 2.0       # dynamic threshold: a queue stays under this times the free space
QUANTUM_BYTES = MTU_BYTES   # deficit round-robin credit per visit at weight 1
WINDOW_FLOOR = 1.0
ABC, LEGACY = 0, 1
QUEUE_NAMES = ("abc", "legacy")


# -- the router's rules --------------------------------------------------------

def target_rate(params, mu_bps, queue_delay_us):
    """``eta*mu - (mu/delta) * (x - d_t)+``, and never below 0."""
    excess = max(0, queue_delay_us - params.target_delay_us)
    return max(0.0, params.eta * mu_bps - (mu_bps / params.delta_us) * excess)


def accel_fraction(target_bps, dequeue_bps):
    """``f = min(tr / (2 cr), 1)``; an idle queue accelerates everything."""
    if dequeue_bps == 0:
        return 1.0
    return min(0.5 * target_bps / dequeue_bps, 1.0)


def meter(token, token_limit, fraction, ecn):
    """The token bucket: returns the new token and the packet's mark.

    Every packet deposits ``fraction``, up to the limit.  An accelerate
    stays one only by spending more than a whole token; a brake is never
    promoted, and other codepoints pass untouched.
    """
    token = min(token + fraction, token_limit)
    if ecn is ACCEL:
        if token > 1:
            return token - 1, ACCEL
        return token, BRAKE
    return token, ecn


def admits(queue_len, backlog, buffer_pkts):
    """Dynamic threshold: a queue grows only while shorter than twice the free space."""
    return queue_len < THRESHOLD_RATIO * (buffer_pkts - backlog)


def drr_pick(router):
    """The queue deficit round-robin serves next, with its deficit charged.

    A lone backlogged queue is served at once and the round restarts, so
    no credit is banked across idle time.  With both backlogged, each
    fresh visit grants the queue its weight times the quantum, and a
    queue is served while its deficit covers its head packet.
    """
    queues, deficit = router.queues, router.deficit
    if not (queues[ABC] and queues[LEGACY]):
        served = ABC if queues[ABC] else LEGACY
        deficit[ABC] = deficit[LEGACY] = 0.0
        router.turn, router.fresh_visit = 1 - served, True
        return served
    while True:
        q = router.turn
        if router.fresh_visit:
            weight = router.weight_abc if q == ABC else 1.0 - router.weight_abc
            deficit[q] += weight * QUANTUM_BYTES
            router.fresh_visit = False
        size = queues[q][0][0].size_bytes
        if deficit[q] >= size:
            deficit[q] -= size
            return q
        router.turn, router.fresh_visit = 1 - q, True


def dequeue_rate(window, now, size, window_us):
    """The ABC queue's dequeue rate in bits/s over ``(now - window_us, now]``,
    this dequeue's bytes included."""
    window.append((now, size))
    while window[0][0] <= now - window_us:
        window.popleft()
    return sum(n for _, n in window) * 8 * US_PER_S / window_us


def update_weight(router, now):
    """Re-derive the ABC queue's share, and log it.

    Each queue's heaviest flows (from its Space Saving sketch) that
    recurred over the last ``demand_memory`` intervals want their peak
    rate plus headroom; each queue's other bytes, smoothed, are short
    transfers that want what they get.  The shorts are carved out of the
    capacity first, the long flows share the rest max-min fairly, and the
    ABC queue's share of the total is its weight.
    """
    interval = now - router.last_update
    router.last_update = now
    if interval > 0:
        _reallocate(router, now, interval)
    router.weight_log.append((now, router.weight_abc))


def _reallocate(router, now, interval):
    p = router.params
    for q in (ABC, LEGACY):
        sketch = router.sketches[q]
        counts, errors = sketch.counts(), sketch.errors()
        for flow_id, rate in sketch.top_rates(interval):
            # A counter mostly inherited from evicted flows is churn, not a flow.
            if not errors[flow_id] > counts[flow_id] / 2:
                router.history.setdefault((QUEUE_NAMES[q], flow_id), deque()).append(
                    (router.epoch, rate))
    router.epoch += 1
    demands, owners, recent = [], [], [0.0, 0.0]
    for key in sorted(router.history):
        samples = router.history[key]
        while samples and samples[0][0] < router.epoch - p.demand_memory:
            samples.popleft()
        peak = max((rate for _, rate in samples), default=0.0)
        if peak < 1e3:
            del router.history[key]
        elif len(samples) >= 2:
            q = QUEUE_NAMES.index(key[0])
            demands.append(peak * (1.0 + p.demand_headroom))
            owners.append(q)
            if samples[-1][0] == router.epoch - 1:
                recent[q] += samples[-1][1]
    for q in (ABC, LEGACY):
        residue = max(0.0, router.epoch_bytes[q] * 8 * US_PER_S / interval - recent[q])
        old = router.shorts[q]
        router.shorts[q] = residue if old == 0.0 else (1 - p.demand_smoothing) * old \
            + p.demand_smoothing * residue
        router.sketches[q].clear()
        router.epoch_bytes[q] = 0
    capacity = router.capacity.capacity(now)
    shorts = list(router.shorts)
    if capacity <= 0 or not (any(d > 0 for d in demands) or any(shorts)):
        return
    agg = shorts[ABC] + shorts[LEGACY]
    if agg > capacity:
        shorts = [s * (capacity / agg) for s in shorts]
        agg = capacity
    alloc = water_fill(demands, capacity - agg)
    total = sum(alloc) + agg
    abc_share = shorts[ABC] + sum(a for a, q in zip(alloc, owners) if q == ABC)
    if total > 0:
        router.weight_abc = min(1.0, max(0.0, abc_share / total))


class SpecRouter:
    """An accel/brake hop: two queues of ``(packet, enqueue time)`` sharing
    one buffer, and the state its rules keep."""

    def __init__(self, hop, log_rows):
        self.params = hop.abc_params
        self.buffer_pkts = hop.buffer_pkts
        self.fixed_fraction = hop.fixed_fraction
        self.capacity = OracleRateView(hop.link, hop.abc_params.rate_window_us)
        self.queues = (deque(), deque())
        self.deficit = [0.0, 0.0]
        self.turn, self.fresh_visit = ABC, True
        self.weight_abc = 1.0
        self.token = 0.0
        self.rate_window = deque()
        self.log_rows = log_rows
        self.rows = []
        self.sketches = [SpaceSavingSketch(self.params.sketch_size) for _ in QUEUE_NAMES]
        self.epoch_bytes = [0, 0]
        self.history, self.epoch, self.shorts = {}, 0, [0.0, 0.0]
        self.last_update = 0
        self.weight_log = [(0, 1.0)]

    def backlog(self):
        return len(self.queues[ABC]) + len(self.queues[LEGACY])

    def enqueue(self, pkt, now):
        """Returns the packet itself when it is dropped, else None."""
        q = self.queues[ABC if pkt.ecn in (ACCEL, BRAKE) else LEGACY]
        if not admits(len(q), self.backlog(), self.buffer_pkts):
            return pkt
        q.append((pkt, now))
        return None

    def on_dequeue(self, now):
        q = drr_pick(self)
        pkt, enqueued_at = self.queues[q].popleft()
        self.sketches[q].record(pkt.flow_id, pkt.size_bytes)
        self.epoch_bytes[q] += pkt.size_bytes
        sojourn = now - enqueued_at
        if q == LEGACY:
            if self.log_rows:
                self.rows.append((now, "legacy", "", "", "", sojourn, "", pkt.ecn.name))
            return pkt, enqueued_at
        current = dequeue_rate(self.rate_window, now, pkt.size_bytes,
                               int(self.params.rate_window_us))
        if self.fixed_fraction is not None:
            fraction, target, current = self.fixed_fraction, 0.0, 0.0
        else:
            mu = self.capacity.capacity(now) * self.weight_abc
            target = target_rate(self.params, mu, sojourn)
            fraction = accel_fraction(target, current)
        self.token, pkt.ecn = meter(self.token, float(self.params.token_limit), fraction, pkt.ecn)
        if self.log_rows:
            self.rows.append((now, "abc", round(fraction, 6), round(target, 1),
                              round(current, 1), sojourn, round(self.token, 6), pkt.ecn.name))
        return pkt, enqueued_at


# -- the sender's rules --------------------------------------------------------

def window_step(w, delta, mark, additive_increase):
    """The accel/brake window after an ACK for ``delta`` packets.

    An accelerate adds ``delta`` and a brake takes it away; with additive
    increase either also adds ``delta / w``, one packet per window.  The
    window never falls below one packet.
    """
    if mark is ACCEL:
        w += delta * (1.0 + 1.0 / w) if additive_increase else delta
    elif mark is BRAKE:
        w += delta * (-1.0 + 1.0 / w) if additive_increase else -delta
    return max(w, WINDOW_FLOOR)


def capped(w, inflight):
    """A window clamped into ``[1, 2 * max(inflight, 1)]``: feedback is at
    most one RTT old, so it can at most double the rate."""
    return max(WINDOW_FLOOR, min(w, 2.0 * max(inflight, 1)))


class SpecSender:
    """A window-limited sender; ``w_abc`` is None for a legacy (Cubic) one."""

    def __init__(self, spec, base_rtt_us):
        self.flow_id = spec.flow_id
        self.w_abc = float(spec.initial_window) if spec.scheme == "abc" else None
        self.mark = ACCEL if spec.scheme == "abc" else EcnCodepoint.NOT_ECT
        self.additive_increase = spec.additive_increase
        self.cubic = CubicWindow(spec.initial_window, rtt_guard_us=base_rtt_us)
        self.base_rtt_us = base_rtt_us
        self.budget = spec.bytes_budget
        self.unacked = {}  # seq -> (bytes, sent at)
        self.next_seq = self.bytes_sent = 0
        self.last_progress = 0
        self.srtt_us = None
        self.stopped = False

    def window(self):
        w = self.cubic.cwnd
        return w if self.w_abc is None else min(self.w_abc, w)

    def apply_cap(self):
        inflight = len(self.unacked)
        self.cubic.cwnd = capped(self.cubic.cwnd, inflight)
        if self.w_abc is not None:
            self.w_abc = capped(self.w_abc, inflight)

    def transmit(self, now):
        """Send while the window has room and the budget lasts."""
        out = []
        while not self.stopped and len(self.unacked) < self.window():
            size = MTU_BYTES
            if self.budget is not None:
                if self.budget - self.bytes_sent <= 0:
                    break
                size = min(size, self.budget - self.bytes_sent)
            out.append(Packet(self.flow_id, self.next_seq, size, self.mark, now))
            self.unacked[self.next_seq] = (size, now)
            self.next_seq += 1
            self.bytes_sent += size
        return out

    def on_ack(self, ack, now):
        """Retire everything up to the cumulative ACK point (holes below it
        are lost: there is no retransmission), step the windows, send."""
        newly = ack.bytes_newly_acked
        lowest = self.next_seq - len(self.unacked)
        retired = [self.unacked.pop(seq)
                   for seq in range(lowest, min(ack.acked_seq + 1, self.next_seq))]
        if not retired and newly == 0:
            return []  # a duplicate or stale ACK
        delta = newly / MTU_BYTES
        if self.w_abc is not None:
            self.w_abc = window_step(self.w_abc, delta, ack.echo_mark, self.additive_increase)
        if retired:
            sample = now - retired[-1][1]
            self.srtt_us = sample if self.srtt_us is None else (7 * self.srtt_us + sample) // 8
        self.last_progress = now
        self.cubic.rtt_guard_us = self.base_rtt_us if self.srtt_us is None \
            else max(self.srtt_us, self.base_rtt_us)
        if ack.ece or sum(size for size, _ in retired) > newly:
            self.cubic.on_congestion(now)
        else:
            self.cubic.on_ack(delta, now)
        self.apply_cap()
        return self.transmit(now)

    def on_timeout(self, now):
        """Everything in flight is lost: Cubic restarts, one packet goes out,
        and only then are the windows capped."""
        self.cubic.on_timeout(now)
        self.unacked.clear()
        self.last_progress = now
        out = self.transmit(now)
        self.apply_cap()
        return out


# -- the receiver's rule -------------------------------------------------------

class EchoRun:
    """What a receiver has taken in but not yet acknowledged."""

    def __init__(self):
        self.mark = ACCEL
        self.count = self.bytes = 0
        self.highest_seq = -1
        self.ece = False


def _ack(flow_id, run, now):
    ack = Ack(flow_id, run.highest_seq, run.bytes, run.mark, run.ece)
    run.count = run.bytes = 0
    run.ece = False
    return ack


def echo(run, pkt, now, coalesce):
    """The ACKs a receiver sends for one delivered packet.

    An accel/brake mark unlike the run's first acknowledges the old run
    under the old mark, then the packet at once under its own.  Otherwise
    an ACK goes out once ``coalesce`` packets are pending.  A classic ECN
    mark sets the echo flag of the next ACK.
    """
    if pkt.ecn is ECN_SET:
        run.ece = True
    acks = []
    switched = pkt.ecn in (ACCEL, BRAKE) and pkt.ecn is not run.mark
    if switched and run.count:
        acks.append(_ack(pkt.flow_id, run, now))
    if switched:
        run.mark = pkt.ecn
    run.count += 1
    run.bytes += pkt.size_bytes
    run.highest_seq = max(run.highest_seq, pkt.seq)
    if switched or run.count >= coalesce:
        acks.append(_ack(pkt.flow_id, run, now))
    return acks


# -- the event loop ------------------------------------------------------------

class SpecFlow:
    def __init__(self, spec, base_rtt_us):
        self.sender = SpecSender(spec, base_rtt_us)
        self.run = EchoRun()
        self.fwd_delay_us, self.rev_delay_us = spec.fwd_delay_us, spec.rev_delay_us
        self.rto_us = max(4 * base_rtt_us, MIN_RTO_US)
        self.rto_armed = False
        self.delack_epoch = 0
        self.prev_sample_bytes = 0


class SpecSimulation:
    """One run of a topology; the arguments are ``Simulation``'s."""

    def __init__(self, topology, duration_us, seed=0, flow_sample_interval_us=0,
                 log_router_rows=False, receiver_coalesce=2):
        self.topology = topology
        self.duration_us = int(duration_us)
        self.coalesce = receiver_coalesce
        self.sample_interval_us = int(flow_sample_interval_us)
        self.heap, self.order, self.now = [], count(), 0
        self.log = MetricsLog(duration_us=self.duration_us, seed=seed)
        self.routers, self.busy = [], []
        for hop in topology.hops:
            if hop.kind == "abc":
                router = SpecRouter(hop, log_router_rows)
                if log_router_rows:
                    self.log.router_samples[hop.hop_id] = router.rows
                self.push(hop.abc_params.weight_interval_us, self._on_weights, router)
            else:
                router = DroptailRouter(hop.hop_id, hop.buffer_pkts, hop.ecn_threshold_pkts)
            self.routers.append(router)
            self.busy.append(False)
            self.log.hop_stats[hop.hop_id] = HopStats()
        self.flows = {}
        for spec in topology.flows:
            flow = self._add_flow(spec)
            self.push(spec.start_us, self._on_start, flow)
            if spec.stop_us is not None:
                self.push(spec.stop_us, self._on_stop, flow)
        self.shorts = 0
        load = topology.shorts
        if load is not None and load.load_bps > 0:
            for t in short_flow_schedule(load.load_bps, load.flow_bytes, self.duration_us,
                                         random.Random(seed)):
                self.push(t, self._on_short, load)
        if self.sample_interval_us > 0:
            self.push(self.sample_interval_us, self._on_sample)

    def push(self, time, handler, *args):
        heappush(self.heap, (time, next(self.order), handler, args))

    def _add_flow(self, spec):
        rtt = spec.fwd_delay_us + sum(h.delay_to_next_us for h in self.topology.hops) \
            + spec.rev_delay_us
        self.flows[spec.flow_id] = SpecFlow(spec, rtt)
        return self.flows[spec.flow_id]

    def run(self):
        while self.heap and self.heap[0][0] <= self.duration_us:
            self.now, _, handler, args = heappop(self.heap)
            handler(*args)
        self.now = self.duration_us
        for hop, stats in zip(self.topology.hops, self.log.hop_stats.values()):
            stats.opportunity_bytes = hop.link.opportunity_bytes(0, self.duration_us)
        return self.log

    # Flows start, stop, send and time out.

    def _on_start(self, flow):
        flow.sender.last_progress = self.now
        self._send(flow, flow.sender.transmit(self.now))

    def _on_stop(self, flow):
        flow.sender.stopped = True

    def _on_short(self, load):
        self.shorts += 1
        spec = FlowSpec(f"short{self.shorts:06d}", "cubic", fwd_delay_us=load.fwd_delay_us,
                        rev_delay_us=load.rev_delay_us, initial_window=load.initial_window,
                        bytes_budget=load.flow_bytes)
        self._on_start(self._add_flow(spec))

    def _send(self, flow, pkts):
        """Each packet reaches hop 0 after the forward delay; a flow with
        packets outstanding keeps one retransmission timer armed."""
        for pkt in pkts:
            self.push(self.now + flow.fwd_delay_us, self._on_arrive, 0, pkt)
        if flow.sender.unacked and not flow.rto_armed:
            flow.rto_armed = True
            self.push(self.now + flow.rto_us, self._on_rto, flow)

    def _on_rto(self, flow):
        """Fires ``rto_us`` after the sender last made progress, unless
        nothing is outstanding; an earlier wake-up re-arms for that time."""
        sender = flow.sender
        if not sender.unacked:
            flow.rto_armed = False
            return
        deadline = sender.last_progress + flow.rto_us
        if deadline > self.now:
            self.push(deadline, self._on_rto, flow)
            return
        flow.rto_armed = False
        self._send(flow, sender.on_timeout(self.now))

    # Packets cross the hops.

    def _on_arrive(self, hop_idx, pkt):
        if self.routers[hop_idx].enqueue(pkt, self.now) is pkt:
            hop_id = self.topology.hops[hop_idx].hop_id
            self.log.record_drop(DropRecord(pkt.flow_id, pkt.seq, hop_id, self.now))
        elif not self.busy[hop_idx]:
            # Wake an idle hop at its link's next opportunity.
            t = self.topology.hops[hop_idx].link.next_delivery(self.now)
            if t is not None:
                self.busy[hop_idx] = True
                self.push(t, self._on_dequeue, hop_idx)

    def _on_dequeue(self, hop_idx):
        router, hop = self.routers[hop_idx], self.topology.hops[hop_idx]
        if not router.backlog():
            self.busy[hop_idx] = False
            return
        pkt, enqueued_at = router.on_dequeue(self.now)
        self.log.hop_stats[hop.hop_id].dequeued_bytes += pkt.size_bytes
        pkt.hop_trace.extend((enqueued_at, self.now))
        arrival = self.now + hop.delay_to_next_us
        if hop_idx + 1 < len(self.routers):
            self.push(arrival, self._on_arrive, hop_idx + 1, pkt)
        else:
            self.push(arrival, self._on_deliver, pkt)
        t = hop.link.next_delivery(self.now, after=True)
        if t is None:
            self.busy[hop_idx] = False
        else:
            self.push(t, self._on_dequeue, hop_idx)

    # The receiver acknowledges, and ACKs reach the sender.

    def _on_deliver(self, pkt):
        self.log.record_delivery(pkt.flow_id, pkt.seq, pkt.size_bytes, pkt.send_time,
                                 self.now, pkt.hop_trace)
        flow = self.flows[pkt.flow_id]
        acks = echo(flow.run, pkt, self.now, self.coalesce)
        if acks:
            flow.delack_epoch += 1
        elif flow.run.count:
            self.push(self.now + DELACK_US, self._on_delack, flow, flow.delack_epoch)
        for ack in acks:
            self.push(self.now + flow.rev_delay_us, self._on_ack, flow, ack)

    def _on_delack(self, flow, epoch):
        """A partial batch is acknowledged unless an ACK went out since."""
        if epoch == flow.delack_epoch and flow.run.count:
            flow.delack_epoch += 1
            self.push(self.now + flow.rev_delay_us, self._on_ack, flow,
                      _ack(flow.sender.flow_id, flow.run, self.now))

    def _on_ack(self, flow, ack):
        self._send(flow, flow.sender.on_ack(ack, self.now))

    # Housekeeping.

    def _on_weights(self, router):
        update_weight(router, self.now)
        self.push(self.now + router.params.weight_interval_us, self._on_weights, router)

    def _on_sample(self):
        for spec in self.topology.flows:
            flow = self.flows[spec.flow_id]
            sender = flow.sender
            rate = (sender.bytes_sent - flow.prev_sample_bytes) * 8 * US_PER_S \
                / self.sample_interval_us
            flow.prev_sample_bytes = sender.bytes_sent
            w_abc = "" if sender.w_abc is None else round(sender.w_abc, 4)
            self.log.flow_samples.setdefault(spec.flow_id, []).append(
                (self.now, w_abc, round(sender.cubic.cwnd, 4), len(sender.unacked),
                 round(rate, 1)))
        self.push(self.now + self.sample_interval_us, self._on_sample)

    def census(self):
        """Sent = delivered + dropped + queued + in flight."""
        return {
            "sent": sum(flow.sender.next_seq for flow in self.flows.values()),
            "delivered": len(self.log.seqs),
            "dropped": len(self.log.drops),
            "queued": sum(router.backlog() for router in self.routers),
            "in_flight": sum(handler in (self._on_arrive, self._on_deliver)
                             for _, _, handler, _ in self.heap),
        }
