"""Packet-level simulator for explicit window-control congestion signaling.

The protocol under study lets routers split acknowledgment-clocked
traffic into accelerate and brake feedback: each acknowledged packet
tells the sender to grow or shrink its window, so the router controls
the aggregate rate one round trip later without keeping per-flow state.

Modules:

- ``core``      packet/ACK records, codepoints, unit helpers
- ``links``     fixed, stepped and trace-driven link processes
- ``router``    marking control law, token bucket, dual-queue scheduling
- ``sender``    window arithmetic for marked and legacy flows
- ``receiver``  feedback echo with coalescing
- ``legacy``    cubic window growth and droptail/ECN queues
- ``engine``    the discrete-event loop
- ``metrics``   run logs, summaries, CSV output
- ``fluid``     delay-differential model of the aggregate queue
- ``wifi``      link-rate estimation from frame-aggregation ACKs
- ``config``    YAML scenario files
- ``cli``       the ``accelbrake`` command
"""

import importlib

# Each public name and the submodule that defines it.  ``import accelbrake``
# loads none of them: a name's module is imported the first time the name is
# read (PEP 562), so the fluid model and the Wi-Fi estimator run without
# loading the simulator.
_EXPORTS = {
    "Ack": "core", "EcnCodepoint": "core", "Packet": "core", "MTU_BYTES": "core",
    "FlowSpec": "engine", "HopSpec": "engine", "ShortFlowLoad": "engine",
    "Simulation": "engine", "Topology": "engine",
    "FixedLink": "links", "OracleRateView": "links", "StepLink": "links",
    "TraceLink": "links", "load_trace_file": "links",
    "MetricsLog": "metrics", "jain_index": "metrics",
    "AbcParams": "router", "AbcRouter": "router", "accel_fraction": "router",
    "target_rate": "router",
    "AbcSender": "sender", "CubicSender": "sender", "lost_ack_drift": "sender",
    "steady_state_window": "sender",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"
