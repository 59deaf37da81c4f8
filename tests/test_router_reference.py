"""The accel/brake router against the composition of its earlier parts.

``_ReferenceRouter`` keeps the earlier router body: ``enqueue`` classifies
through a separate step, and ``on_dequeue`` serves through the dual queue's
deficit round-robin, reads the rate window through ``add`` then ``rate``,
and marks through the range-checked ``MarkerState.mark``.  Those parts are
kept here as they were (``_ReferenceDualQueue``, ``_ReferenceRateWindow``,
``_reference_target_rate``, ``_reference_accel_fraction``,
``_ReferenceMarker``).  ``update_weights`` is the library's on both sides;
it feeds both queues' weights from their own sketches.  The reference
also keeps the earlier per-queue byte counter ``_epoch_bytes``, which the
library now reads as the sum of the queue's sketch counters.  Random
enqueue/dequeue/weight sequences must give the same packets, marks,
tokens, enqueue stamps, rate-window entries and per-queue bytes after
every step.
"""

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from accelbrake.core import ACCEL, BRAKE, MTU_BYTES, US_PER_S, EcnCodepoint, Packet
from accelbrake.links import FixedLink, OracleRateView, TraceLink
from accelbrake.router import ABC_QUEUE, LEGACY_QUEUE, AbcParams, AbcRouter


class _ReferenceDualQueue:
    THRESHOLD_RATIO = 2.0
    QUANTUM_BYTES = MTU_BYTES

    def __init__(self, capacity_pkts):
        self.capacity_pkts = capacity_pkts
        self.weight_abc = 1.0
        self._tags = (ABC_QUEUE, LEGACY_QUEUE)
        self._by_index = (deque(), deque())
        self._queues = dict(zip(self._tags, self._by_index))
        self._deficit = [0.0, 0.0]
        self._count = 0
        self._ptr = 0
        self._fresh_visit = True

    def backlog(self, tag=None):
        if tag is not None:
            return len(self._queues[tag])
        return self._count

    def enqueue(self, tag, pkt, now):
        q = self._queues[tag]
        if len(q) >= self.THRESHOLD_RATIO * (self.capacity_pkts - self._count):
            return pkt
        q.append((pkt, now))
        self._count += 1
        return None

    def dequeue(self, now):
        abc, legacy = self._by_index
        if not abc or not legacy:
            if abc:
                idx = 0
            elif legacy:
                idx = 1
            else:
                raise IndexError("dequeue from an empty dual queue")
            deficit = self._deficit
            deficit[0] = deficit[1] = 0.0
            self._ptr = idx ^ 1
            self._fresh_visit = True
            self._count -= 1
            pkt, enq = self._by_index[idx].popleft()
            return self._tags[idx], pkt, enq
        deficit = self._deficit
        while True:
            idx = self._ptr
            if self._fresh_visit:
                weight = self.weight_abc if idx == 0 else 1.0 - self.weight_abc
                deficit[idx] += weight * self.QUANTUM_BYTES
                self._fresh_visit = False
            q = self._by_index[idx]
            size = q[0][0].size_bytes
            if deficit[idx] >= size:
                deficit[idx] -= size
                self._count -= 1
                pkt, enq = q.popleft()
                return self._tags[idx], pkt, enq
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
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        queue = _ReferenceDualQueue(self.queue.capacity_pkts)
        queue.weight_abc = self.queue.weight_abc
        self.queue = queue
        self.marker = _ReferenceMarker(self.params.token_limit)
        self.rate_window = _ReferenceRateWindow(self.params.rate_window_us)
        self._epoch_bytes = {ABC_QUEUE: 0, LEGACY_QUEUE: 0}

    def enqueue(self, pkt, now):
        tag = ABC_QUEUE if pkt.ecn.is_abc else LEGACY_QUEUE
        return self.queue.enqueue(tag, pkt, now)

    def on_dequeue(self, now):
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
                mu = self.capacity_view.capacity(now) * self.queue.weight_abc
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
@given(buffer_pkts=st.integers(1, 16), log_rows=st.booleans(),
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
def test_router_matches_reference(buffer_pkts, log_rows, fixed_fraction, view, rate_mbps,
                                  params, ops):
    def capacity_view():
        if view == "trace":
            # Opportunities at 1, 2, 4 and 7 ms of every 7 ms period.
            return OracleRateView(TraceLink([1, 2, 4, 7]), 5_000)
        if rate_mbps == 0.0:
            return _FixedCapacity(0.0)
        return OracleRateView(FixedLink(rate_mbps * 1e6), 5_000)

    new = AbcRouter("r", params, capacity_view(), buffer_pkts=buffer_pkts,
                    fixed_fraction=fixed_fraction, log_rows=log_rows)
    ref = _ReferenceRouter("r", params, capacity_view(), buffer_pkts=buffer_pkts,
                           fixed_fraction=fixed_fraction, log_rows=log_rows)
    now = 0
    for seq, (step, op) in enumerate(ops):
        now += step
        if op[0] == "enqueue":
            _, flow, ecn, size = op
            a, b = Packet(flow, seq, size, ecn, now), Packet(flow, seq, size, ecn, now)
            assert (new.enqueue(a, now) is a) == (ref.enqueue(b, now) is b)
        elif op[0] == "dequeue":
            assert new.backlog() == ref.queue.backlog()
            if new.backlog():
                (got, got_enq), (want, want_enq) = new.on_dequeue(now), ref.on_dequeue(now)
                assert (got.flow_id, got.seq, got.size_bytes, got.ecn) == \
                    (want.flow_id, want.seq, want.size_bytes, want.ecn)
                assert got_enq == want_enq
        elif op[0] == "weight":
            new.queue.weight_abc = ref.queue.weight_abc = op[1]
        else:
            assert new.update_weights(now) == ref.update_weights(now)
        assert new.marker.token == ref.marker.token
        # With log_rows, every dequeue's fraction, target and rate as well.
        assert new.rows == ref.rows
        assert list(new.rate_window._events) == list(ref.rate_window._events)
        assert new.rate_window._bytes == ref.rate_window._bytes
        assert new.weight_abc == ref.queue.weight_abc
        for tag in (ABC_QUEUE, LEGACY_QUEUE):
            # What the next update_weights reads as this queue's bytes.
            assert sum(new._sketches[tag].counts().values()) == ref._epoch_bytes[tag]
            assert new.queue.backlog(tag) == ref.queue.backlog(tag)
            assert [(p.flow_id, p.seq, p.ecn, enq) for p, enq in new.queue._queues[tag]] == \
                [(p.flow_id, p.seq, p.ecn, enq) for p, enq in ref.queue._queues[tag]]
