"""Span tracer that wraps the library's public entry points from outside.

``Tracer.install`` replaces each listed method or function with a
wrapper that times the call, subtracts the time of wrapped calls nested
inside it (the span's self time) and keeps every call's inclusive
duration in memory.  Counts and ratios are taken from the wrapped calls'
public return values, never from private fields.  ``uninstall`` puts the
originals back; ``summary`` aggregates once, at the end of the run.

Most of a wrapper's bookkeeping runs outside the span it times and lands
in the caller's self time; the clock reads land in the span's own.
``calibrate`` measures both shares per call, and a Tracer built with its
result takes them out of the self times.  Summed over every span, the
self times then equal the outermost span (``Simulation.run``) minus the
wrappers' calibrated cost.
"""

from __future__ import annotations

import statistics
import time
from array import array


class _Span:
    __slots__ = ("durations", "self_ns", "counts")

    def __init__(self):
        self.durations = array("q")
        self.self_ns = 0
        self.counts = {}


def _count(counts: dict, key: str, n: int = 1) -> None:
    counts[key] = counts.get(key, 0) + n


def _on_enqueue(counts, victim):
    if victim is not None:
        _count(counts, "drops")


def _on_marked_dequeue(counts, result):
    pkt = result[0]
    if pkt.ecn.is_abc:
        _count(counts, "marked")
        if pkt.ecn.name == "ACCEL":
            _count(counts, "accel")


def _on_packets(counts, pkts):
    _count(counts, "pkts", len(pkts))


def _on_acks(counts, acks):
    _count(counts, "acks", len(acks))


def _on_flush(counts, ack):
    if ack is not None:
        _count(counts, "acks")


def _on_congestion(counts, reacted):
    if reacted:
        _count(counts, "reactions")


def entry_points() -> list:
    """(owner, attribute, span name, observer) for every wrapped call.

    Methods that share a role (both senders' on_ack, both links'
    next_delivery) feed one span.  The droptail router and the step link
    are left out: no workload uses them.
    """
    from accelbrake import (engine, fluid, legacy, links, metrics, receiver,
                            router, sender, topk, wifi)
    return [(engine.Simulation, "run", "engine.run", None),
            (router.AbcRouter, "enqueue", "router.enqueue", _on_enqueue),
            (router.AbcRouter, "on_dequeue", "router.on_dequeue", _on_marked_dequeue),
            (router.AbcRouter, "update_weights", "router.update_weights", None),
            (topk.SpaceSavingSketch, "record", "topk.record", None),
            (links.FixedLink, "next_delivery", "links.next_delivery", None),
            (links.TraceLink, "next_delivery", "links.next_delivery", None),
            (links.OracleRateView, "capacity", "links.capacity", None),
            (sender.AbcSender, "on_ack", "sender.on_ack", _on_packets),
            (sender.CubicSender, "on_ack", "sender.on_ack", _on_packets),
            (sender.AbcSender, "on_timeout", "sender.on_timeout", None),
            (sender.CubicSender, "on_timeout", "sender.on_timeout", None),
            (sender.FlowSender, "transmit", "sender.transmit", None),
            (receiver.EchoState, "on_packet", "receiver.on_packet", _on_acks),
            (receiver.EchoState, "flush", "receiver.flush", _on_flush),
            (legacy.CubicWindow, "on_ack", "legacy.on_ack", None),
            (legacy.CubicWindow, "on_congestion", "legacy.on_congestion", _on_congestion),
            (legacy.CubicWindow, "on_timeout", "legacy.on_timeout", None),
            (metrics.MetricsLog, "record_delivery", "metrics.record", None),
            (metrics.MetricsLog, "record_drop", "metrics.record", None),
            (fluid, "integrate", "fluid.integrate", None),
            (wifi, "generate_mac_trace", "wifi.generate", None),
            (wifi, "estimate_capacity", "wifi.estimate", None)]


class Tracer:
    def __init__(self, points, overhead_ns=((0, 0), (0, 0))):
        self.points = points
        # Wrapper cost per call, (caller's share, own share), without and
        # with an observer: see calibrate.
        self.overhead_ns = overhead_ns
        self.spans: dict[str, _Span] = {}
        self._stack = [0]   # child time accumulated by each open span
        self._saved: list = []

    def install(self) -> None:
        for owner, attr, name, observe in self.points:
            original = owner.__dict__[attr]
            span = self.spans.setdefault(name, _Span())
            setattr(owner, attr, self._wrap(original, span, observe))
            self._saved.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, span: _Span, observe):
        stack = self._stack
        clock = time.perf_counter_ns
        durations = span.durations
        counts = span.counts
        caller_ns, own_ns = self.overhead_ns[observe is not None]

        def wrapper(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                children = stack.pop()
                stack[-1] += dt + caller_ns
                span.self_ns += dt - children - own_ns
                durations.append(dt)
            if observe is not None:
                observe(counts, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def summary(self) -> dict:
        """Per span: calls, total and self ns, p50/p99 inclusive ns, counts."""
        out = {}
        for name, span in self.spans.items():
            d = sorted(span.durations)
            n = len(d)
            out[name] = {
                "calls": n,
                "total_ns": sum(d),
                "self_ns": span.self_ns,
                "p50_ns": d[-(-n // 2) - 1] if n else 0,
                "p99_ns": d[-(-n * 99 // 100) - 1] if n else 0,
                "counts": dict(span.counts),
            }
        return out


class _Probe:
    def inner(self, n):
        return ()

    def inner_bare(self, n):
        return ()

    def loop(self, n):
        for _ in range(n):
            pass

    def bare_calls(self, n):
        for _ in range(n):
            self.inner_bare(n)

    def calls(self, n):
        for _ in range(n):
            self.inner(n)


def calibrate(n: int = 30_000, rounds: int = 5) -> tuple:
    """Wrapper cost per call, in ns: (caller's share, own share) without and
    with an observer, each the median over ``rounds`` loops of ``n`` calls.

    The caller's share is the self time a loop of wrapped calls has over an
    empty loop; the own share is the wrapped call's self time over that of
    the same call unwrapped (a loop of bare calls minus the empty loop).
    """
    out = []
    for observe in (None, _on_packets):
        samples = []
        for _ in range(rounds):
            tracer = Tracer([(_Probe, name, name, None)
                             for name in ("loop", "bare_calls", "calls")]
                            + [(_Probe, "inner", "inner", observe)])
            tracer.install()
            try:
                for name in ("loop", "bare_calls", "calls"):
                    getattr(_Probe(), name)(n)
            finally:
                tracer.uninstall()
            per_call = {name: span.self_ns / n for name, span in tracer.spans.items()}
            samples.append((per_call["calls"] - per_call["loop"],
                            per_call["inner"] - (per_call["bare_calls"] - per_call["loop"])))
        out.append(tuple(round(statistics.median(x)) for x in zip(*samples)))
    return tuple(out)
