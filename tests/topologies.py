"""Hypothesis strategies for random valid topologies, shared by the engine
tests and the spec diff (``tests/test_spec_diff.py``)."""

from hypothesis import strategies as st

from accelbrake.core import MTU_BITS
from accelbrake.engine import FlowSpec, HopSpec, ShortFlowLoad, Topology
from accelbrake.links import FixedLink, StepLink, TraceLink


@st.composite
def tied_topologies(draw):
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


@st.composite
def _random_links(draw):
    kind = draw(st.sampled_from(["fixed", "step", "trace"]))
    if kind == "fixed":
        return FixedLink(draw(st.integers(1, 48)) * 1e6)
    if kind == "step":
        starts = sorted(draw(st.sets(st.integers(1, 999_999), max_size=3)))
        # 1e15 Mbit/s serializes an MTU in far under a microsecond.
        rates = draw(st.lists(st.sampled_from([0, 0.5, 6, 24, 1e15]), min_size=len(starts) + 1,
                              max_size=len(starts) + 1))
        return StepLink([(t, r * 1e6) for t, r in zip([0] + starts, rates)])
    period = draw(st.integers(1, 30))
    return TraceLink(sorted(draw(st.sets(st.integers(1, period))) | {period}))


@st.composite
def random_topologies(draw):
    delays = st.integers(0, 20_000)
    hops = [HopSpec(f"h{i}", draw(_random_links()), kind=draw(st.sampled_from(["abc", "droptail"])),
                    buffer_pkts=draw(st.integers(1, 20)), delay_to_next_us=draw(delays))
            for i in range(draw(st.integers(1, 3)))]
    flows = [FlowSpec(f"f{j}", draw(st.sampled_from(["abc", "cubic"])),
                      start_us=draw(st.integers(0, 200_000)),
                      fwd_delay_us=draw(delays), rev_delay_us=draw(delays))
             for j in range(draw(st.integers(1, 3)))]
    # From 1,000 B, the smallest transfer a scenario file can ask for
    # (flow_kbytes >= 1): a few bytes per flow at 4 Mbit/s means half a
    # million flows per simulated second.  test_engine.py keeps one sub-kB
    # case, bounded in time.
    shorts = draw(st.none() | st.builds(ShortFlowLoad, st.sampled_from([1e6, 4e6]),
                                        st.integers(1_000, 30_000), delays, delays))
    return Topology(hops, flows, shorts)


@st.composite
def retirement_topologies(draw):
    """Long abc/cubic flows plus Poisson shorts through one or two small hops.

    Buffers go down to one packet, so shorts lose packets and time out.
    The two-hop layout stamps ECN at a droptail hop in front of an abc
    hop, whose other DRR queue then carries the stamped packets.
    """
    delays = st.integers(0, 20_000)
    links = st.integers(1, 8).map(lambda mbps: FixedLink(mbps * 1e6))
    buffers = st.integers(1, 30)
    layout = draw(st.sampled_from(["abc", "droptail", "ecn_then_abc"]))
    if layout == "ecn_then_abc":
        hops = [HopSpec("h0", draw(links), kind="droptail", buffer_pkts=draw(buffers),
                        ecn_threshold_pkts=draw(st.integers(1, 5)),
                        delay_to_next_us=draw(delays)),
                HopSpec("h1", draw(links), buffer_pkts=draw(buffers))]
    else:
        hops = [HopSpec("h0", draw(links), kind=layout, buffer_pkts=draw(buffers))]
    flows = [FlowSpec(f"f{j}", draw(st.sampled_from(["abc", "cubic"])),
                      start_us=draw(st.integers(0, 200_000)),
                      fwd_delay_us=draw(delays), rev_delay_us=draw(delays))
             for j in range(draw(st.integers(0, 3)))]
    shorts = ShortFlowLoad(draw(st.sampled_from([2e6, 6e6])), draw(st.integers(1_000, 30_000)),
                           draw(delays), draw(delays),
                           initial_window=draw(st.sampled_from([1.0, 4.0, 10.0])))
    return Topology(hops, flows, shorts)
