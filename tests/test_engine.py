"""Event-loop integration: determinism, conservation, lifecycle events."""

import re
from collections import Counter
from heapq import heappush
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from accelbrake.config import load_scenario
from accelbrake.engine import FlowSpec, HopSpec, ShortFlowLoad, Simulation, Topology
from accelbrake.links import FixedLink
from accelbrake.metrics import first_divergence, report, timeline_digest
from accelbrake.router import AbcParams
from accelbrake.sender import AbcSender
from topologies import random_topologies, retirement_topologies

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def _mixed_topology():
    return Topology(
        hops=[HopSpec("btl", FixedLink(24e6))],
        flows=[
            FlowSpec("abc0", "abc", fwd_delay_us=5_000, rev_delay_us=15_000),
            FlowSpec("cub0", "cubic", fwd_delay_us=5_000, rev_delay_us=15_000),
        ],
        shorts=ShortFlowLoad(load_bps=2e6, flow_bytes=10_000,
                             fwd_delay_us=5_000, rev_delay_us=15_000),
    )


def test_same_seed_reproduces_run_exactly():
    def signature(seed):
        log = Simulation(_mixed_topology(), duration_us=4_000_000, seed=seed).run()
        return (
            [(d.flow_id, d.seq, d.deliver_time) for d in log.deliveries],
            [(d.flow_id, d.seq, d.time) for d in log.drops],
        )

    assert signature(9) == signature(9)


def test_different_seeds_change_short_arrivals():
    def sig(seed):
        log = Simulation(_mixed_topology(), duration_us=4_000_000, seed=seed).run()
        return [(d.flow_id, d.seq, d.deliver_time) for d in log.deliveries]

    a, b = sig(1), sig(2)
    assert any(fid.startswith("short") for fid, _, _ in a)
    assert a != b


def test_every_sent_packet_is_accounted_for():
    sim = Simulation(_mixed_topology(), duration_us=4_000_000, seed=3)
    sim.run()
    c = sim.census()
    assert c["sent"] == c["delivered"] + c["dropped"] + c["queued"] + c["in_flight"]
    assert c["delivered"] > 0


def test_overflow_drops_are_logged_per_hop():
    topo = Topology(
        hops=[HopSpec("tiny", FixedLink(8e6), kind="droptail", buffer_pkts=5)],
        flows=[FlowSpec("cub0", "cubic", initial_window=64,
                        fwd_delay_us=1_000, rev_delay_us=1_000)],
    )
    sim = Simulation(topo, duration_us=2_000_000, seed=0)
    log = sim.run()
    assert log.drops, "a 64-packet burst into a 5-packet buffer must drop"
    assert {d.hop_id for d in log.drops} == {"tiny"}
    assert report(log)["hops"]["tiny"]["drops"] == len(log.drops)
    c = sim.census()
    assert c["dropped"] == len(log.drops)


def test_stop_time_halts_transmission():
    topo = Topology(
        hops=[HopSpec("btl", FixedLink(24e6))],
        flows=[FlowSpec("abc0", "abc", stop_us=1_000_000,
                        fwd_delay_us=5_000, rev_delay_us=15_000)],
    )
    log = Simulation(topo, duration_us=3_000_000, seed=0).run()
    assert log.deliveries
    assert max(d.send_time for d in log.deliveries) <= 1_000_000


def test_flow_sampling_rows():
    log = Simulation(_mixed_topology(), duration_us=4_000_000, seed=5,
                     flow_sample_interval_us=500_000).run()
    rows = log.flow_samples["abc0"]
    assert len(rows) == 8
    # Columns: time, primary window, companion window, inflight, send rate.
    t, w_abc, w_cubic, inflight, rate = rows[-1]
    assert t == 4_000_000
    assert w_abc > 0 and w_cubic > 0 and rate >= 0
    # Legacy flows have no primary window to report.
    assert all(r[1] == "" for r in log.flow_samples["cub0"])


def test_router_weight_history_is_kept():
    sim = Simulation(_mixed_topology(), duration_us=1_000_000, seed=1)
    sim.run()
    weights = sim.routers[0].weight_log
    assert weights[0] == (0, 1.0)
    assert len(weights) == 11  # one initial entry plus one per 100 ms
    assert all(0.0 <= w <= 1.0 for _, w in weights)


def test_delayed_ack_timer_completes_odd_tail():
    # Three packets with coalesce=2: the third ACK only exists because the
    # receiver flushes on its delayed-ACK timer.
    topo = Topology(
        hops=[HopSpec("btl", FixedLink(24e6))],
        flows=[FlowSpec("abc0", "abc", bytes_budget=4_500,
                        fwd_delay_us=2_000, rev_delay_us=2_000)],
    )
    sim = Simulation(topo, duration_us=2_000_000, seed=0)
    log = sim.run()
    assert len(log.deliveries) == 3
    assert sim.flows["abc0"].sender.done()


def test_hop_traces_cover_path():
    topo = Topology(
        hops=[HopSpec("first", FixedLink(24e6), delay_to_next_us=2_000),
              HopSpec("second", FixedLink(18e6))],
        flows=[FlowSpec("abc0", "abc", fwd_delay_us=2_000, rev_delay_us=2_000)],
    )
    log = Simulation(topo, duration_us=1_000_000, seed=0).run()
    rec = log.deliveries[0]
    assert [h[0] for h in rec.hops] == ["first", "second"]
    (h1, enq1, deq1), (h2, enq2, deq2) = rec.hops
    assert rec.send_time <= enq1 <= deq1 <= enq2 <= deq2 <= rec.deliver_time


def test_stamps_past_four_bytes_read_back_exactly():
    # A run longer than 2**32 us keeps 8-byte stamps.  Nothing in this run
    # depends on absolute time but the routers' 100 ms weight updates, so
    # moving the flow's start by whole intervals moves every stamp by as much.
    def run(start_us):
        topo = Topology(
            hops=[HopSpec("btl", FixedLink(24e6))],
            flows=[FlowSpec("abc0", "abc", start_us=start_us,
                            fwd_delay_us=5_000, rev_delay_us=15_000)],
        )
        return Simulation(topo, duration_us=start_us + 3_000_000, seed=0).run()

    start = 2**32 + 1_000
    shift = start - start % 100_000
    late, early = run(start), run(start - shift)
    assert len(late.deliveries) == len(early.deliveries) > 1_000
    assert late.deliveries[0].send_time == start
    for got, want in zip(late.deliveries, early.deliveries):
        assert (got.flow_id, got.seq, got.size_bytes) == (want.flow_id, want.seq, want.size_bytes)
        assert got.send_time - shift == want.send_time
        assert got.deliver_time - shift == want.deliver_time
        assert tuple((hop, enq - shift, deq - shift) for hop, enq, deq in got.hops) == want.hops


def test_topology_validation_errors():
    hop = HopSpec("h", FixedLink(1e6))
    with pytest.raises(ValueError, match="at least one hop"):
        Topology([], [FlowSpec("f")]).validate()
    with pytest.raises(ValueError, match="at least one flow"):
        Topology([hop], []).validate()
    with pytest.raises(ValueError, match="unknown scheme"):
        Topology([hop], [FlowSpec("f", scheme="reno")]).validate()
    with pytest.raises(ValueError, match="duplicate flow"):
        Topology([hop], [FlowSpec("f"), FlowSpec("f")]).validate()
    with pytest.raises(ValueError, match="duplicate hop"):
        Topology([hop, HopSpec("h", FixedLink(1e6))], [FlowSpec("f")]).validate()
    with pytest.raises(ValueError, match="unknown kind"):
        Topology([HopSpec("x", FixedLink(1e6), kind="red")], [FlowSpec("f")]).validate()
    with pytest.raises(ValueError, match=re.escape("flows[0].flow_id: must be usable as a file")):
        Topology([hop], [FlowSpec("x/y")]).validate()
    with pytest.raises(ValueError, match=re.escape("hops[0].hop_id: must be usable as a file")):
        Topology([HopSpec("..", FixedLink(1e6))], [FlowSpec("f")]).validate()
    with pytest.raises(ValueError, match=re.escape("hops[0].hop_id: must hold no '='")):
        Topology([HopSpec("cell\nhop.x.drops=99", FixedLink(1e6))], [FlowSpec("f")]).validate()
    with pytest.raises(ValueError, match=re.escape("flows[0].flow_id: must hold no '='")):
        Topology([hop], [FlowSpec("line\nbreak")]).validate()


@pytest.mark.parametrize("hop, flow, shorts, message", [
    ({}, {"initial_window": 0.0}, None, "flows[1].initial_window: must be >= 1, got 0.0"),
    ({}, {"fwd_delay_us": -1}, None, "flows[1].fwd_delay_us: must be >= 0"),
    ({}, {"start_us": 1_000, "stop_us": 1_000}, None, "flows[1].stop_us: must be after"),
    ({}, {"bytes_budget": 0}, None, "flows[1].bytes_budget: must be >= 1"),
    ({"ecn_threshold_pkts": 5}, {}, None, "hops[0].ecn_threshold_pkts: only valid on droptail"),
    ({"fixed_fraction": 0.5, "kind": "droptail"}, {}, None, "hops[0].fixed_fraction: only"),
    ({"abc_params": AbcParams(weight_interval_us=0)}, {}, None,
     "hops[0].abc_params: weight_interval_us must be > 0"),
    ({"abc_params": AbcParams(rate_window_us=0)}, {}, None,
     "hops[0].abc_params: rate_window_us must be > 0"),
    ({"abc_params": AbcParams(demand_headroom=-2)}, {}, None,
     "hops[0].abc_params: demand_headroom must be >= 0"),
    ({"abc_params": AbcParams(sketch_size=0)}, {}, None,
     "hops[0].abc_params: sketch_size must be >= 1"),
    ({}, {}, {"initial_window": 0}, "shorts.initial_window: must be >= 1"),
    ({}, {}, {"flow_bytes": 0}, "shorts.flow_bytes: must be >= 1"),
])
def test_simulation_names_the_invalid_spec(hop, flow, shorts, message):
    # Each of these once ran (delivering nothing, or hanging, or failing
    # mid-run); now building the Simulation names the spec and field.
    topo = Topology([HopSpec("h", FixedLink(1e6), **hop)], [FlowSpec("ok"), FlowSpec("f", **flow)],
                    None if shorts is None else ShortFlowLoad(1e6, **shorts))
    with pytest.raises(ValueError, match=re.escape(message)):
        Simulation(topo, duration_us=1_000_000)


def test_short_flow_ids_are_reserved_only_with_shorts():
    # A scenario flow named like a short flow would be replaced by it.
    hop = HopSpec("h", FixedLink(1e6))
    with pytest.raises(ValueError, match="flow id 'short000001' is reserved for short flows"):
        Simulation(Topology([hop], [FlowSpec("short000001")], ShortFlowLoad(5e6)), 1_000_000)
    Topology([hop], [FlowSpec("short00001"), FlowSpec("short000001x")],
             ShortFlowLoad(5e6)).validate()
    sim = Simulation(Topology([hop], [FlowSpec("short000001")]), 1_000_000)
    sim.run()
    assert isinstance(sim.flows["short000001"].sender, AbcSender)


def test_zero_short_load_counts_as_no_flow():
    # The engine never starts a zero-load stream, and the config drops it.
    hop = HopSpec("h", FixedLink(1e6))
    with pytest.raises(ValueError, match="at least one flow"):
        Topology([hop], [], ShortFlowLoad(0)).validate()
    Topology([hop], [], ShortFlowLoad(1e6)).validate()


@settings(max_examples=25, deadline=None)
@given(topo=random_topologies(), seed=st.integers(0, 3))
def test_random_topologies_dequeue_once_per_instant_and_conserve_packets(topo, seed):
    # A hop serves at most one packet per microsecond: every wake-up is
    # strictly later than the dequeue before it.
    sim = Simulation(topo, duration_us=1_000_000, seed=seed)
    log = sim.run()
    for hop_id, stats in log.hop_stats.items():
        stamps = sorted(stats.dequeue_times)
        assert all(a < b for a, b in zip(stamps, stamps[1:])), hop_id
    # Every delivered packet has one stamp pair per hop, in path order, and
    # went from queue to queue in exactly the propagation delays.
    path = [hop.hop_id for hop in topo.hops]
    fwd_delay = {flow.flow_id: flow.fwd_delay_us for flow in topo.flows}
    short_delay = topo.shorts.fwd_delay_us if topo.shorts else None
    for rec in log.deliveries:
        assert [hop_id for hop_id, _, _ in rec.hops] == path
        arrival = rec.send_time + fwd_delay.get(rec.flow_id, short_delay)
        for hop, (_, enq, deq) in zip(topo.hops, rec.hops):
            assert enq == arrival and enq <= deq, rec
            arrival = deq + hop.delay_to_next_us
        assert rec.deliver_time == arrival, rec
    c = sim.census()
    assert c["sent"] == c["delivered"] + c["dropped"] + c["queued"] + c["in_flight"]


def test_sub_kilobyte_short_flows_conserve_packets():
    # 100 B transfers at 1 Mbit/s: 1,250 flows per simulated second.
    topo = Topology([HopSpec("h", FixedLink(1e6))], [FlowSpec("f")],
                    ShortFlowLoad(1e6, flow_bytes=100))
    sim = Simulation(topo, duration_us=200_000, seed=1)
    sim.run()
    c = sim.census()
    assert c["sent"] > 100
    assert c["sent"] == c["delivered"] + c["dropped"] + c["queued"] + c["in_flight"]


def test_negative_duration_rejected():
    topo = Topology([HopSpec("h", FixedLink(1e6))], [FlowSpec("f")])
    with pytest.raises(ValueError):
        Simulation(topo, duration_us=-1)


@pytest.mark.parametrize("kwargs, message", [
    ({"duration_us": -1}, "duration_us: must be >= 0, got -1"),
    ({"seed": -1}, "seed: must be >= 0, got -1"),
    ({"flow_sample_interval_us": -5}, "sample_interval_us: must be >= 0, got -5"),
    ({"receiver_coalesce": 0}, "receiver_coalesce: must be >= 1, got 0"),
])
def test_simulation_arguments_follow_scenario_rules(kwargs, message):
    # Once a zero coalesce factor failed only at the first short flow, and a
    # negative sample interval silently turned sampling off.
    topo = Topology([HopSpec("h", FixedLink(1e6))], [], ShortFlowLoad(2e6))
    with pytest.raises(ValueError, match=re.escape(message)):
        Simulation(topo, **{"duration_us": 500_000, **kwargs})


# metrics.timeline_digest (flow, seq, deliver time, hop stamps, then the
# drops) of each shipped scenario run for 2 simulated seconds.  A change to any of
# these means the packet timeline moved.
GOLDEN_2S = {
    "bottleneck_switch":
        "c9db2eb9863a65a71e09d090972e5b1e967147195b5f32ce8c22d7594e3b8108",
    "coexist_shorts":
        "256ed158f5acd108d9501420cf334cc4e9473a5d949e71d60eb1ba6fc2498f02",
    "fairness_four":
        "044bc055de2825c5f8107f5352e7850647818f9344ae5f610fedd36ab0b47769",
    "serial_bottlenecks":
        "e41e9d99e0d4cd04f1a75e7fe914ab8adfafcff2d10d17a8381624687a359e39",
    "single_trace":
        "7322a7345b38e98be8a8177937cc008c5e8b655c79009bb54ce7a36884e13789",
}


def _run_2s(name):
    """A shipped scenario, run for 2 simulated seconds."""
    cfg = load_scenario(str(SCENARIO_DIR / f"{name}.yaml"))
    sim = Simulation(cfg.topology, 2_000_000, seed=cfg.seed,
                     flow_sample_interval_us=cfg.sample_interval_us,
                     log_router_rows=cfg.log_router_rows,
                     receiver_coalesce=cfg.receiver_coalesce)
    return sim, sim.run()


@pytest.mark.parametrize("name", sorted(GOLDEN_2S))
def test_golden_timeline(name):
    _, log = _run_2s(name)
    assert timeline_digest(log) == GOLDEN_2S[name]


def _count_pushes(handler_name):
    """Run serial_bottlenecks for 2 s; returns the log and the events it
    pushed for the named handler."""
    cfg = load_scenario(str(SCENARIO_DIR / "serial_bottlenecks.yaml"))
    sim = Simulation(cfg.topology, 2_000_000, seed=cfg.seed,
                     receiver_coalesce=cfg.receiver_coalesce)
    pushed = []

    def counting_push(heap, item):
        if item[2] == getattr(sim, handler_name):
            pushed.append(item)
        heappush(heap, item)

    with mock.patch("accelbrake.engine.heappush", counting_push):
        log = sim.run()
    return log, pushed


def test_serial_bottlenecks_emit_two_ack_emissions():
    """A mark change flushes the old run: some emissions carry two ACKs."""
    _, pushed = _count_pushes("_on_ack")
    sizes = Counter(len(item[3][1]) for item in pushed)
    assert set(sizes) == {1, 2} and sizes[2] > 100


def test_serial_bottlenecks_take_both_delivery_branches():
    """Most deliveries run inline; one due at a busy instant is pushed."""
    log, pushed = _count_pushes("_on_deliver")
    assert 0 < len(pushed) < len(log.seqs) / 10


# Events pushed per delivered packet in 2 simulated seconds, read from the
# engine's event counter; the count is deterministic.  One event per send
# burst and one per ACK emission give 2.549, 2.535 and 4.699 (single_trace,
# coexist_shorts, serial_bottlenecks).  One event per ACK would give 2.596,
# 2.564 and 4.972; one per sent packet as well, 3.116 and 3.172 on the
# first two.
EVENTS_PER_DELIVERY_2S = {"single_trace": 2.55, "coexist_shorts": 2.54,
                          "serial_bottlenecks": 4.70}


@pytest.mark.parametrize("name", sorted(EVENTS_PER_DELIVERY_2S))
def test_events_per_delivery(name):
    sim, log = _run_2s(name)
    assert next(sim._counter) / len(log.seqs) <= EVENTS_PER_DELIVERY_2S[name]


def _live_packets(sim):
    """Packets per flow queued at a hop or waiting in the event heap."""
    live = Counter()
    for router in sim.routers:
        queues = router._queues if hasattr(router, "_queues") else (router._queue,)
        live.update(pkt.flow_id for q in queues for pkt, _ in q)
    for _, _, handler, args in sim._heap:
        if handler == sim._on_arrive:  # a send burst, or a forwarded 1-tuple
            live.update(pkt.flow_id for pkt in args[1])
        elif handler == sim._on_deliver:
            live[args[0].flow_id] += 1
    return live


def _assert_live_census(sim):
    c = sim.census()
    assert c["sent"] == c["delivered"] + c["dropped"] + c["queued"] + c["in_flight"]
    moving = c["queued"] + c["in_flight"]
    assert moving == sum(_live_packets(sim).values())
    assert moving == sum(rt.live for rt in sim.flows.values())


@settings(max_examples=50, deadline=None)
@given(topo=random_topologies(), seed=st.integers(0, 3),
       duration_us=st.integers(1, 1_000_000))
def test_census_counts_every_arrival_at_random_horizons(topo, seed, duration_us):
    # A run cut at its horizon leaves packets queued and in the heap: send
    # bursts bound for hop 0 and packets forwarded to later hops.
    sim = Simulation(topo, duration_us, seed=seed)
    sim.run()
    _assert_live_census(sim)


@settings(max_examples=50, deadline=None)
@given(topo=random_topologies(), seed=st.integers(0, 3), coalesce=st.sampled_from([3, 4]),
       duration_us=st.integers(1, 1_000_000))
def test_one_live_delayed_ack_timer_per_pending_run(topo, seed, coalesce, duration_us):
    # Only the first packet of a pending run arms the delayed-ACK timer: at
    # any cut, a flow has one current-epoch timer while packets are pending
    # and none otherwise.  Retired shorts are found through the heap.
    sim = Simulation(topo, duration_us, seed=seed, receiver_coalesce=coalesce)
    sim.run()
    timers = Counter(id(args[0]) for _, _, handler, args in sim._heap
                     if handler == sim._on_delack and args[1] == args[0].delack_epoch)
    runtimes = {id(rt): rt for rt in sim.flows.values()}
    runtimes.update((id(args[0]), args[0]) for _, _, handler, args in sim._heap
                    if handler == sim._on_delack)
    for key, runtime in runtimes.items():
        assert timers[key] == (runtime.echo.pending_count > 0), runtime.sender.flow_id


@pytest.mark.parametrize("duration_us", [400_000, 777_777, 1_500_000])
def test_census_counts_bursts_and_forwarded_packets(duration_us):
    # serial_bottlenecks is cut with both kinds of arrival in the heap, and
    # with bursts of more than one packet.
    cfg = load_scenario(str(SCENARIO_DIR / "serial_bottlenecks.yaml"))
    sim = Simulation(cfg.topology, duration_us, seed=cfg.seed,
                     receiver_coalesce=cfg.receiver_coalesce)
    sim.run()
    # (hop index, packet count) of every arrival in the heap.
    arrivals = [(args[0], len(args[1])) for _, _, handler, args in sim._heap
                if handler == sim._on_arrive]
    assert max(n for hop, n in arrivals if hop == 0) > 1, arrivals
    assert {n for hop, n in arrivals if hop > 0} == {1}, arrivals
    _assert_live_census(sim)


@settings(max_examples=100, deadline=None)
@given(topo=retirement_topologies(), seed=st.integers(0, 3),
       duration_us=st.integers(200_000, 2_000_000))
# An overloaded second hop drops the last live packet of shorts whose RTO
# has already fired, so they are retired on the drop.
@example(topo=Topology([HopSpec("h0", FixedLink(1e6), kind="droptail", buffer_pkts=50),
                        HopSpec("h1", FixedLink(0.5e6), kind="droptail", buffer_pkts=3)],
                       [], ShortFlowLoad(6e6, 1_928, 0, 0)),
         seed=3, duration_us=1_500_000)
def test_retiring_finished_shorts_changes_nothing_observable(topo, seed, duration_us):
    sim = Simulation(topo, duration_us, seed=seed)
    log = sim.run()
    with mock.patch.object(Simulation, "_retire_if_finished", lambda self, runtime: None):
        kept = Simulation(topo, duration_us, seed=seed)
        kept_log = kept.run()
    assert timeline_digest(log) == timeline_digest(kept_log), first_divergence(log, kept_log)
    assert report(log) == report(kept_log)
    assert sim.census() == kept.census()

    long_ids = {f.flow_id for f in topo.flows}
    live = _live_packets(sim)
    assert set(sim.flows) <= set(kept.flows)
    for flow_id, runtime in kept.flows.items():
        if flow_id not in sim.flows:  # retired: a finished short with nothing live
            assert flow_id not in long_ids and runtime.sender.done()
            assert live[flow_id] == 0
    for flow_id, runtime in sim.flows.items():
        assert runtime.live == live[flow_id], flow_id
        assert (flow_id in long_ids or runtime.live > 0 or not runtime.sender.done()
                or runtime.sender.cap_violations > 0), flow_id
