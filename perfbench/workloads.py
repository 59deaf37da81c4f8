"""The benchmark's workloads and the metrics it reports.

Every workload is a batch job: the simulated traffic is fixed by the
scenario file (and, where the scenario draws random numbers, by the
seed), so a run measures how long the library takes to do a fixed amount
of simulated work, not how it behaves under an arrival process.

The three simulator workloads use the shipped scenarios so the traffic is
the project's own.  Their simulated horizons are shortened (except for
``cell_trace``) so that one pass takes a few host seconds and a run can
take the median of several passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: Optional[str]   # path relative to the checkout root
    hop: Optional[str]        # bottleneck hop whose outcomes are reported
    horizon_s: float          # simulated seconds per pass
    seeded: bool              # whether --seed changes the inputs


# Why each workload was chosen, and which layers it loads and bypasses,
# is recorded in BENCHMARK.json and perfbench/README.md.
WORKLOADS = {w.name: w for w in (
    Workload("cell_trace", "scenarios/single_trace.yaml", "cell", 60.0, seeded=False),
    Workload("two_hop", "scenarios/serial_bottlenecks.yaml", "second", 20.0, seeded=False),
    Workload("coexist_shorts", "scenarios/coexist_shorts.yaml", "shared", 8.0, seeded=True),
    Workload("companion", None, None, 60.0, seeded=True),
)}

# Parameters of the companion workload (the README's examples).
FLUID = dict(n_flows=16, mu_bps=24e6, tau_s=0.1, ai_interval_s=0.1)
WIFI_PHY_BPS = 72e6
WIFI_LOAD_BPS = 40e6
WIFI_WINDOW_US = 40_000
WIFI_CAP_FACTOR = 2.0

# End-to-end metrics: name -> unit.  The sim_* metrics are simulated
# outcomes, not host timings; they repeat exactly for a fixed seed.
END_TO_END = {
    "setup_s": "s",
    "total_s": "s",
    "pkts_per_s": "1/s",
    "peak_rss_mb": "MB",
    "sim_utilization": "ratio",
    "sim_qdelay_p95": "sim_ms",
    "sim_jain": "ratio",
}

# Wrapped calls that get count, self time and per-call percentiles.
TRACED_CALLS = (
    "router.enqueue", "router.on_dequeue", "router.update_weights",
    "topk.record", "links.next_delivery", "links.capacity",
    "sender.on_ack", "receiver.on_packet", "metrics.record",
)
LAYERS = ("engine", "router", "topk", "links", "sender", "receiver", "legacy",
          "metrics")


def per_layer_units() -> dict:
    """Every per-layer metric name -> unit, in report order."""
    units = {}
    for call in TRACED_CALLS:
        units[f"{call}.calls"] = "count"
        units[f"{call}.self_s"] = "s"
        units[f"{call}.p50_ns"] = "ns"
        units[f"{call}.p99_ns"] = "ns"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units.update({
        "engine.run_s": "s",
        "engine.delivered_pkts": "count",
        "engine.self_ns_per_pkt": "ns",
        "router.marked_dequeues": "count",
        "router.drop_ratio": "ratio",
        "router.accel_ratio": "ratio",
        "links.next_delivery_per_dequeue": "ratio",
        "sender.transmit.calls": "count",
        "sender.timeouts": "count",
        "sender.pkts_per_ack": "ratio",
        "receiver.acks_per_pkt": "ratio",
        "legacy.calls": "count",
        "legacy.congestion_reactions": "count",
        "metrics.report_s": "s",
        "metrics.rss_bytes_per_pkt": "B",
        "config.load_s": "s",
        "fluid.integrate.steps": "count",
        "fluid.integrate.ns_per_step": "ns",
        "wifi.events": "count",
        "wifi.generate.ns_per_event": "ns",
        "wifi.estimate.ns_per_event": "ns",
        "trace.overhead_ratio": "ratio",
        "trace.wrapper_s": "s",
        "trace.corrected_overhead_ratio": "ratio",
    })
    return units
