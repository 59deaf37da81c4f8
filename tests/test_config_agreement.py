"""The YAML config and the Python API accept exactly the same scenarios.

Random scenario dicts, valid and near every boundary, are parsed by
``parse_scenario`` and, independently, turned into specs by hand and
validated through the API.  Parse only: nothing is simulated.
"""

import copy
import dataclasses
import os

from hypothesis import given, settings
from hypothesis import strategies as st

from accelbrake.config import ConfigError, parse_scenario
from accelbrake.engine import FlowSpec, HopSpec, ScenarioConfig, ShortFlowLoad, Topology
from accelbrake.links import FixedLink, StepLink, load_trace_file
from accelbrake.router import AbcParams

TRACE = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "scenarios",
                                     "traces", "varying_cell.txt"))


def _ms(v):
    return int(round(v * 1000))


def _s(v):
    return int(round(v * 1e6))


# yaml key -> (API field, unit conversion), written out independently of config.py.
ABC_KEYS = {
    "eta": ("eta", float), "delta_ms": ("delta_us", _ms),
    "target_delay_ms": ("target_delay_us", _ms), "token_limit": ("token_limit", float),
    "rate_window_ms": ("rate_window_us", _ms),
    "weight_interval_ms": ("weight_interval_us", _ms),
    "demand_headroom": ("demand_headroom", float),
    "demand_smoothing": ("demand_smoothing", float),
    "demand_memory": ("demand_memory", int), "sketch_size": ("sketch_size", int),
}
HOP_KEYS = {
    "kind": ("kind", str), "buffer_pkts": ("buffer_pkts", int),
    "ecn_threshold_pkts": ("ecn_threshold_pkts", int),
    "delay_to_next_ms": ("delay_to_next_us", _ms),
}
DELAY_KEYS = {
    "forward_delay_ms": ("fwd_delay_us", _ms), "reverse_delay_ms": ("rev_delay_us", _ms),
    "initial_window": ("initial_window", float),
}
FLOW_KEYS = {
    "scheme": ("scheme", str), "start_s": ("start_us", _s), "stop_s": ("stop_us", _s),
    "additive_increase": ("additive_increase", bool), "bytes": ("bytes_budget", int),
    **DELAY_KEYS,
}
SHORT_KEYS = {"flow_kbytes": ("flow_bytes", lambda kb: kb * 1000), **DELAY_KEYS}
SCENARIO_KEYS = {
    "seed": ("seed", int), "sample_interval_ms": ("sample_interval_us", _ms),
    "receiver_coalesce": ("receiver_coalesce", int), "log_router_rows": ("log_router_rows", bool),
}


def _fields(section, keys):
    return {field: convert(section[key]) for key, (field, convert) in keys.items()
            if key in section}


def _link(d):
    if d["type"] == "fixed":
        return FixedLink(d["rate_mbps"] * 1e6)
    if d["type"] == "step":
        return StepLink([(_s(t), rate * 1e6) for t, rate in d["segments"]])
    return load_trace_file(d["file"])


def _via_api(d):
    """Build the scenario's specs through the Python API; raise ValueError if invalid."""
    base = AbcParams(**_fields(d.get("abc_params", {}), ABC_KEYS))
    base.validate()
    hops = [HopSpec(h["id"], _link(h["link"]),
                    abc_params=dataclasses.replace(base, **_fields(h.get("abc_params", {}),
                                                                   ABC_KEYS)),
                    **_fields(h, HOP_KEYS))
            for h in d["hops"]]
    flows = [FlowSpec(f["id"], **_fields(f, FLOW_KEYS)) for f in d.get("flows", [])]
    shorts = d.get("shorts")
    if shorts is not None:
        shorts = ShortFlowLoad(shorts["load_mbps"] * 1e6, **_fields(shorts, SHORT_KEYS))
    ScenarioConfig(Topology(hops, flows, shorts), _s(d["duration_s"]),
                   **_fields(d, SCENARIO_KEYS)).validate()


@st.composite
def scenario_dicts(draw):
    """Well-typed scenario dicts: mostly valid values, each one at an edge about one time in ten."""
    def pick(valid, edges=()):
        edge = bool(edges) and draw(st.sampled_from([False] * 9 + [True]))
        return draw(st.sampled_from(edges if edge else valid))

    def some(**keys):
        return {key: value() for key, value in keys.items() if draw(st.booleans())}

    def num():
        return pick([1, 2.5, 40], [-1, 0, 0.0004, 0.0006, 0.5])

    def frac():
        return pick([0.25, 0.5, 1], [-0.5, 0, 1.5])

    def count():
        return pick([1, 2, 250], [-1, 0])

    def abc():
        return some(eta=frac, delta_ms=num, target_delay_ms=num, token_limit=num,
                    rate_window_ms=num, weight_interval_ms=num, demand_headroom=frac,
                    demand_smoothing=frac, demand_memory=count, sketch_size=count)

    def link():
        kind = draw(st.sampled_from(["fixed", "step", "trace"]))
        if kind == "fixed":
            return {"type": kind, "rate_mbps": num()}
        if kind == "trace":
            return {"type": kind, "file": TRACE}
        return {"type": kind, "segments": [[pick([i], [-1, 0, 2.5]), pick([12, 24], [-1, 0])]
                                           for i in range(draw(st.integers(1, 3)))]}

    def hop(i):
        kind = pick(["abc", "droptail"], ["red"])
        spec = {"id": f"h{i}", "kind": kind, "link": link(),
                **some(buffer_pkts=count, abc_params=abc, delay_to_next_ms=num)}
        if kind == "droptail" or pick([False], [True]):
            spec.update(some(ecn_threshold_pkts=count))
        return spec

    def delays():
        return some(forward_delay_ms=num, reverse_delay_ms=num, initial_window=num)

    def flow(i):
        spec = {"id": f"f{i}", **delays(), **some(
            scheme=lambda: pick(["abc", "cubic"], ["reno"]), start_s=num,
            additive_increase=lambda: draw(st.booleans()), bytes=count)}
        if draw(st.booleans()):  # stop_s lands at or before start_s at the edge
            spec["stop_s"] = spec.get("start_s", 0) + pick([1, 5], [0, -0.5])
        return spec

    def shorts():
        return {"load_mbps": pick([5], [-1, 0]), **delays(), **some(flow_kbytes=count)}

    return {"duration_s": num(),
            "hops": [hop(i) for i in range(draw(st.integers(1, 3)))],
            "flows": [flow(i) for i in range(pick([1, 2, 3], [0]))],
            **some(seed=count, sample_interval_ms=num, receiver_coalesce=count,
                   log_router_rows=lambda: draw(st.booleans()), abc_params=abc,
                   shorts=shorts)}


@settings(max_examples=400, deadline=None)
@given(scenario_dicts())
def test_config_rejects_exactly_what_the_api_rejects(data):
    try:
        _via_api(copy.deepcopy(data))
        api_error = None
    except ValueError as exc:
        api_error = exc
    try:
        parse_scenario(copy.deepcopy(data))
    except ConfigError as exc:
        assert str(exc).startswith(("scenario.", "scenario:")), str(exc)
        assert api_error is not None, f"only the config rejects it: {exc}"
    else:
        assert api_error is None, f"only the API rejects it: {api_error}"
