"""The library simulator against the executable spec in ``tests/spec.py``.

Both run the same arguments and must agree on everything a run shows: the
packet timeline (``timeline_digest``; a failure names the first line where
the two part, from ``first_divergence``), ``report()``, the packet census,
the per-flow samples, the per-packet router rows and each router's weight
history.  The inputs are the five shipped scenarios at 2 s, and random
topologies from ``tests/topologies.py`` with random hop options and run
arguments.
"""

import dataclasses
import signal
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from accelbrake.config import load_scenario
from accelbrake.engine import FlowSpec, HopSpec, ShortFlowLoad, Simulation, Topology
from accelbrake.links import FixedLink, TraceLink
from accelbrake.metrics import first_divergence, report, timeline_digest
from accelbrake.router import AbcParams
from spec import SpecSimulation
from topologies import random_topologies, retirement_topologies, tied_topologies

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def _expire(signum, frame):
    raise TimeoutError("the run did not finish within its time limit")


def _assert_spec_agrees(topology, duration_us, **kwargs):
    lib = Simulation(topology, duration_us, **kwargs)
    spec = SpecSimulation(topology, duration_us, **kwargs)
    # A run takes well under a second.  One whose clock stops (an event
    # that re-arms itself at the same instant) fails here instead of
    # hanging the suite.
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(60)
    try:
        log, want = lib.run(), spec.run()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert timeline_digest(log) == timeline_digest(want), first_divergence(log, want)
    assert report(log) == report(want)
    assert lib.census() == spec.census()
    assert log.flow_samples == want.flow_samples
    assert log.router_samples == want.router_samples
    assert [getattr(r, "weight_log", None) for r in lib.routers] == \
        [getattr(r, "weight_log", None) for r in spec.routers]


@pytest.mark.parametrize("name", ["bottleneck_switch", "coexist_shorts", "fairness_four",
                                  "serial_bottlenecks", "single_trace"])
def test_spec_agrees_on_shipped_scenarios(name):
    cfg = load_scenario(str(SCENARIO_DIR / f"{name}.yaml"))
    _assert_spec_agrees(cfg.topology, 2_000_000, seed=cfg.seed,
                        flow_sample_interval_us=cfg.sample_interval_us,
                        log_router_rows=cfg.log_router_rows,
                        receiver_coalesce=cfg.receiver_coalesce)


@st.composite
def _hop_options(draw, topology):
    """The topology with drawn controller knobs and fixed marking fractions
    on its abc hops, and ECN thresholds on some droptail hops.

    Small sketches and short weight intervals make the weight update see
    evicted counters and recurring flows within a short run.
    """
    params = st.builds(AbcParams, token_limit=st.sampled_from([1.0, 2.0, 3.5]),
                       rate_window_us=st.sampled_from([5_000, 20_000]),
                       weight_interval_us=st.sampled_from([20_000, 100_000]),
                       sketch_size=st.integers(1, 10))
    fractions = st.one_of(st.none(), st.none(), st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                          st.floats(0.0, 1.0))
    hops = [dataclasses.replace(hop, abc_params=draw(params), fixed_fraction=draw(fractions))
            if hop.kind == "abc"
            else hop if hop.ecn_threshold_pkts is not None
            else dataclasses.replace(hop, ecn_threshold_pkts=draw(st.none() | st.integers(1, 8)))
            for hop in topology.hops]
    return dataclasses.replace(topology, hops=hops)


@settings(max_examples=150, deadline=None)
# Two abc flows time out at a one-packet buffer, and 1 ms samples read
# their windows before the next ACK.
@example(topology=Topology([HopSpec("h0", FixedLink(1e6), kind="droptail", buffer_pkts=1)],
                           [FlowSpec("f0", fwd_delay_us=0, rev_delay_us=0),
                            FlowSpec("f1", fwd_delay_us=0, rev_delay_us=0)]),
         duration_us=500_000, seed=0, coalesce=1, log_rows=False, sample_us=1_000)
# One-packet shorts churn a one-counter sketch: a newcomer's counter is
# then often exactly half inherited.
@example(topology=Topology([HopSpec("h0", FixedLink(48e6), buffer_pkts=60,
                                    abc_params=AbcParams(weight_interval_us=20_000,
                                                         sketch_size=1))],
                           [FlowSpec("f0", fwd_delay_us=2_000, rev_delay_us=4_000),
                            FlowSpec("f1", "cubic", fwd_delay_us=2_000, rev_delay_us=4_000)],
                           ShortFlowLoad(2e6, 1_500, 2_000, 4_000)),
         duration_us=800_000, seed=1, coalesce=2, log_rows=False, sample_us=0)
# Each delivery at a zero-delay last hop is due when a sample is: it runs
# after the sample, so its ACK comes after the next sample too.
@example(topology=Topology([HopSpec("h0", TraceLink([3]), kind="droptail", buffer_pkts=1)],
                           [FlowSpec("f0", fwd_delay_us=0, rev_delay_us=1_000),
                            FlowSpec("f1", start_us=10_000, fwd_delay_us=0, rev_delay_us=1_000)]),
         duration_us=150_000, seed=1, coalesce=1, log_rows=False, sample_us=1_000)
@given(topology=st.one_of(tied_topologies(), random_topologies(),
                          retirement_topologies()).flatmap(_hop_options),
       duration_us=st.integers(100_000, 800_000), seed=st.integers(0, 3),
       coalesce=st.integers(1, 4), log_rows=st.booleans(),
       sample_us=st.sampled_from([0, 0, 1_000, 20_000, 100_000]))
def test_spec_agrees_on_random_topologies(topology, duration_us, seed, coalesce, log_rows,
                                          sample_us):
    _assert_spec_agrees(topology, duration_us, seed=seed, receiver_coalesce=coalesce,
                        log_router_rows=log_rows, flow_sample_interval_us=sample_us)
