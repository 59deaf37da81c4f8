"""The accel/brake router against the composition of its earlier parts.

``_ReferenceRouter`` keeps the earlier router body: ``enqueue`` classifies
through a separate step, and ``on_dequeue`` serves through a separate dual
queue's deficit round-robin, reads the rate window through ``add`` then
``rate``, and marks through the range-checked ``MarkerState.mark``.  Those
parts are kept here as they were (``_ReferenceDualQueue``,
``_ReferenceRateWindow``, ``_reference_target_rate``,
``_reference_accel_fraction``, ``_ReferenceMarker``).  The reference dual
queue is the straightforward one: dict deficits, a backlog recounted on
every call and a busy list built on every dequeue.  The library router
holds its queues, admits packets, serves a lone backlogged queue and keeps
its rate window in its own frame.  ``update_weights`` is the library's on
both sides; it feeds both queues' weights from their own sketches.  The
reference also keeps the earlier per-queue byte counter ``_epoch_bytes``,
which the library now reads as the sum of the queue's sketch counters.
Random enqueue/dequeue/weight sequences, under a drawn round-robin
quantum, must give the same packets, drops, marks, tokens, enqueue stamps,
rate-window entries, round-robin state, queue contents and per-queue bytes
after every step.
"""

from collections import deque
from typing import Optional

from hypothesis import example, given, settings
from hypothesis import strategies as st

from accelbrake.core import ACCEL, BRAKE, MTU_BYTES, US_PER_S, EcnCodepoint, Packet
from accelbrake.links import FixedLink, OracleRateView, TraceLink
from accelbrake.router import ABC_QUEUE, LEGACY_QUEUE, AbcParams, AbcRouter


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

    def backlog(self):
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


class _ReferenceRateWindow:
    def __init__(self, window_us):
        self.window_us = int(window_us)
        self._events = deque()
        self._bytes = 0

    def add(self, now, n_bytes):
        self._events.append((now, n_bytes))
        self._bytes += n_bytes
        return self.rate(now)

    def rate(self, now):
        self._evict(now)
        return self._bytes * 8 * US_PER_S / self.window_us

    def _evict(self, now):
        cutoff = now - self.window_us
        events = self._events
        while events and events[0][0] <= cutoff:
            self._bytes -= events.popleft()[1]


def _reference_target_rate(params, mu_bps, queue_delay_us):
    excess = max(0, queue_delay_us - params.target_delay_us)
    return max(0.0, params.eta * mu_bps - (mu_bps / params.delta_us) * excess)


def _reference_accel_fraction(target_bps, dequeue_bps):
    if dequeue_bps == 0:
        return 1.0
    return min(1.0, 0.5 * target_bps / dequeue_bps)


class _ReferenceMarker:
    def __init__(self, token_limit):
        self.token = 0.0
        self.token_limit = float(token_limit)

    def mark(self, pkt, fraction):
        assert 0 <= fraction <= 1
        self.token = min(self.token + fraction, self.token_limit)
        if pkt.ecn is ACCEL:
            if self.token > 1:
                self.token -= 1
            else:
                pkt.ecn = BRAKE
        return pkt


class _ReferenceRouter(AbcRouter):
    def __init__(self, *args, quantum_bytes=MTU_BYTES, **kwargs):
        super().__init__(*args, **kwargs)
        self.queue = _ReferenceDualQueue(self.buffer_pkts, quantum_bytes)
        self.marker = _ReferenceMarker(self.params.token_limit)
        self.rate_window = _ReferenceRateWindow(self.params.rate_window_us)
        self._epoch_bytes = {ABC_QUEUE: 0, LEGACY_QUEUE: 0}

    def backlog(self):
        return self.queue.backlog()

    def enqueue(self, pkt, now):
        tag = ABC_QUEUE if pkt.ecn.is_abc else LEGACY_QUEUE
        return self.queue.enqueue(tag, pkt, now)

    def on_dequeue(self, now):
        # The router's weight, which the library's update_weights sets.
        self.queue.weight_abc = self.weight_abc
        tag, pkt, enqueued_at = self.queue.dequeue(now)
        self._sketches[tag].record(pkt.flow_id, pkt.size_bytes)
        self._epoch_bytes[tag] += pkt.size_bytes
        if tag == ABC_QUEUE:
            self.rate_window.add(now, pkt.size_bytes)
            current = self.rate_window.rate(now)
            if self.fixed_fraction is not None:
                fraction = self.fixed_fraction
                target = current = 0.0
            else:
                mu = self.capacity_view.capacity(now) * self.weight_abc
                target = _reference_target_rate(self.params, mu, now - enqueued_at)
                fraction = _reference_accel_fraction(target, current)
            self.marker.mark(pkt, fraction)
            if self.log_rows:
                self.rows.append((now, tag, round(fraction, 6), round(target, 1),
                                  round(current, 1), now - enqueued_at,
                                  round(self.marker.token, 6), pkt.ecn.name))
        elif self.log_rows:
            self.rows.append((now, tag, "", "", "", now - enqueued_at, "", pkt.ecn.name))
        return pkt, enqueued_at

    def _reallocate(self, now, interval):
        super()._reallocate(now, interval)
        self._epoch_bytes = {ABC_QUEUE: 0, LEGACY_QUEUE: 0}


class _FixedCapacity:
    def __init__(self, bps):
        self.bps = bps

    def capacity(self, now):
        return self.bps


_CODEPOINTS = [EcnCodepoint.ACCEL, EcnCodepoint.ACCEL, EcnCodepoint.BRAKE,
               EcnCodepoint.NOT_ECT, EcnCodepoint.ECN_SET]

# Each step first advances the clock by a multiple of 500 us (0 keeps the
# same instant, so several dequeues can share one).  Rate windows are
# multiples of 500 us too, so an entry often sits exactly on the window's
# edge.
_router_ops = st.lists(st.tuples(st.integers(0, 8).map(lambda k: 500 * k), st.one_of(
    st.tuples(st.just("enqueue"), st.sampled_from(["a", "b", "c"]), st.sampled_from(_CODEPOINTS),
              st.sampled_from([40, 576, 1500])),
    st.tuples(st.just("enqueue"), st.sampled_from(["a", "b", "c"]), st.sampled_from(_CODEPOINTS),
              st.sampled_from([40, 576, 1500])),
    st.tuples(st.just("dequeue")),
    st.tuples(st.just("dequeue")),
    st.tuples(st.just("weight"), st.floats(0.0, 1.0)),
    st.tuples(st.just("update_weights")),
)), max_size=200)


@settings(max_examples=300, deadline=None)
@given(quantum=st.sampled_from([500, 1500, 3000]),
       buffer_pkts=st.integers(1, 16), log_rows=st.booleans(),
       fixed_fraction=st.one_of(st.none(), st.floats(0.0, 1.0)),
       view=st.sampled_from(["fixed", "trace"]),
       rate_mbps=st.sampled_from([0.0, 0.1, 1.0, 12.0, 96.0]),
       params=st.builds(AbcParams, eta=st.floats(0.5, 1.0),
                        delta_us=st.integers(1_000, 200_000),
                        target_delay_us=st.integers(0, 20_000),
                        token_limit=st.floats(1.0, 4.0),
                        rate_window_us=st.integers(2, 60).map(lambda k: 500 * k),
                        sketch_size=st.integers(1, 4)),
       ops=_router_ops)
# A dequeue exactly one rate window after the first: that entry leaves the
# window then.
@example(quantum=1500, buffer_pkts=4, log_rows=True, fixed_fraction=None, view="fixed",
         rate_mbps=12.0, params=AbcParams(rate_window_us=1_000),
         ops=[(0, ("enqueue", "a", EcnCodepoint.ACCEL, 1500)),
              (0, ("enqueue", "a", EcnCodepoint.ACCEL, 1500)),
              (0, ("dequeue",)), (1_000, ("dequeue",))])
def test_router_matches_reference(quantum, buffer_pkts, log_rows, fixed_fraction, view,
                                  rate_mbps, params, ops):
    def capacity_view():
        if view == "trace":
            # Opportunities at 1, 2, 4 and 7 ms of every 7 ms period.
            return OracleRateView(TraceLink([1, 2, 4, 7]), 5_000)
        if rate_mbps == 0.0:
            return _FixedCapacity(0.0)
        return OracleRateView(FixedLink(rate_mbps * 1e6), 5_000)

    new = AbcRouter("r", params, capacity_view(), buffer_pkts=buffer_pkts,
                    fixed_fraction=fixed_fraction, log_rows=log_rows)
    new.QUANTUM_BYTES = quantum
    ref = _ReferenceRouter("r", params, capacity_view(), buffer_pkts=buffer_pkts,
                           fixed_fraction=fixed_fraction, log_rows=log_rows,
                           quantum_bytes=quantum)
    now = 0
    for seq, (step, op) in enumerate(ops):
        now += step
        if op[0] == "enqueue":
            _, flow, ecn, size = op
            a, b = Packet(flow, seq, size, ecn, now), Packet(flow, seq, size, ecn, now)
            assert (new.enqueue(a, now) is a) == (ref.enqueue(b, now) is b)
        elif op[0] == "dequeue":
            assert new.backlog() == ref.backlog()
            if new.backlog():
                (got, got_enq), (want, want_enq) = new.on_dequeue(now), ref.on_dequeue(now)
                assert (got.flow_id, got.seq, got.size_bytes, got.ecn) == \
                    (want.flow_id, want.seq, want.size_bytes, want.ecn)
                assert got_enq == want_enq
        elif op[0] == "weight":
            new.weight_abc = ref.weight_abc = op[1]
        else:
            assert new.update_weights(now) == ref.update_weights(now)
        assert new.marker.token == ref.marker.token
        # With log_rows, every dequeue's fraction, target and rate as well.
        assert new.rows == ref.rows
        assert list(new._rate_events) == list(ref.rate_window._events)
        assert new._rate_bytes == ref.rate_window._bytes
        assert new.weight_abc == ref.weight_abc
        # Where the round-robin stands: the lone-queue path resets it.
        deficit = ref.queue._deficit
        assert (new._deficit, new._ptr, new._fresh_visit) == \
            ([deficit[ABC_QUEUE], deficit[LEGACY_QUEUE]], ref.queue._ptr, ref.queue._fresh_visit)
        for tag, queue in zip((ABC_QUEUE, LEGACY_QUEUE), new._queues):
            # What the next update_weights reads as this queue's bytes.
            assert sum(new._sketches[tag].counts().values()) == ref._epoch_bytes[tag]
            assert [(p.flow_id, p.seq, p.ecn, enq) for p, enq in queue] == \
                [(p.flow_id, p.seq, p.ecn, enq) for p, enq in ref.queue._queues[tag]]
