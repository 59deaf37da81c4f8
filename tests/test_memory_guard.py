"""The run log must not grow by a per-packet object, nor a run by its finished flows.

Memory traced across ``run()``, divided by the packets delivered, covers
the delivery log plus whatever else a run keeps (short flows' state, the
heap, queued packets).  With the column-oriented log, its stamps and
sizes in 4-byte unsigned columns, it measures about 66 B per delivery on
both scenarios below.  The same columns as 8-byte signed ``array('q')``
measured 86 (coexist_shorts) and 96 B (serial_bottlenecks), and a log of
one record and one tuple per hop per delivery 380-500 B.

A finished short flow leaves ``Simulation.flows``, so 8 s of
coexist_shorts ends with a few dozen runtimes instead of 1,919.  The
report takes its delay percentiles from per-hop histograms: its traced
peak on that log is about 13 B per hop stamp, where sorting a list of
every delay took about 46.

The Wi-Fi path keeps its trace and its estimates as columns.  On the
companion benchmark's trace (60 s at 72 Mbit/s PHY, 40 Mbit/s offered,
26,651 acknowledgments) the generator keeps 1.50 MB and the estimator
0.87 MB, about 89 B per event together: 56 for the trace's seven columns,
32 for the estimates' four, and the slack of the columns the generator
appends to.  One ``AmpduAckEvent`` and one ``EstimatePoint`` object per
event kept about 270 B (4.06 and 3.21 MB).  Beyond the estimates it
returns, the estimator's traced peak is about 0.27 MB, because it works
through the stream in blocks.  (Its table of weights for the window's
40,001 integer ages, 0.3 MB, is a memory mapping that tracemalloc does
not see; ``_TABLE_SPAN`` bounds it.)  A layout with one row per event
and one column per window position would hold several MB here.
"""

import tracemalloc
from pathlib import Path

import pytest

from accelbrake.config import load_scenario
from accelbrake.engine import Simulation
from accelbrake.metrics import report
from accelbrake.wifi import LinkProfile, estimate_capacity, generate_mac_trace

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
MAX_BYTES_PER_DELIVERY = 80
MAX_FLOWS_AFTER_8S = 100
MAX_REPORT_BYTES_PER_STAMP = 16
MAX_ESTIMATOR_WORKING_BYTES = 1 << 20
MAX_WIFI_BYTES_PER_EVENT = 128


def _simulation(name, duration_us):
    cfg = load_scenario(str(SCENARIO_DIR / f"{name}.yaml"))
    return Simulation(cfg.topology, duration_us, seed=cfg.seed,
                      flow_sample_interval_us=cfg.sample_interval_us,
                      log_router_rows=cfg.log_router_rows,
                      receiver_coalesce=cfg.receiver_coalesce)


@pytest.mark.parametrize("name", ["serial_bottlenecks", "coexist_shorts"])
def test_run_memory_per_delivery(name):
    sim = _simulation(name, 2_000_000)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        log = sim.run()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    delivered = len(log.deliveries)
    assert delivered > 1_000
    assert grown / delivered <= MAX_BYTES_PER_DELIVERY, f"{grown / delivered:.0f} B per delivery"


@pytest.fixture(scope="module")
def shorts_8s():
    sim = _simulation("coexist_shorts", 8_000_000)
    return sim, sim.run()


def test_finished_short_flows_leave_the_simulation(shorts_8s):
    sim, _ = shorts_8s
    assert sim.census()["sent"] > 50_000
    assert len(sim.flows) < MAX_FLOWS_AFTER_8S, f"{len(sim.flows)} flows kept"


def test_report_memory_per_stamp(shorts_8s):
    _, log = shorts_8s
    tracemalloc.start()
    try:
        report(log)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stamps = sum(len(stats.dequeue_times) for stats in log.hop_stats.values())
    assert stamps > 50_000
    assert peak / stamps < MAX_REPORT_BYTES_PER_STAMP, f"{peak / stamps:.1f} B per stamp"


def test_wifi_memory_per_event():
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        events = generate_mac_trace(LinkProfile(phy_rate_bps=72e6), 40e6, 60.0, seed=0)
        points = estimate_capacity(events)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(points) == len(events) > 20_000
    assert kept / len(events) <= MAX_WIFI_BYTES_PER_EVENT, f"{kept / len(events):.0f} B per event"


def test_estimator_working_memory():
    events = generate_mac_trace(LinkProfile(phy_rate_bps=72e6), 40e6, 60.0, seed=0)
    tracemalloc.start()
    try:
        points = estimate_capacity(events)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(points) == len(events) > 20_000
    assert peak - kept < MAX_ESTIMATOR_WORKING_BYTES, f"{(peak - kept) / 1e6:.2f} MB"
