"""YAML scenario files -> simulation topologies.

A scenario describes the run (duration, seed, sampling), the hops along
the single forward path, the long-lived flows, and an optional Poisson
load of short legacy transfers.  Times are seconds or milliseconds as
suffixed, rates are Mbit/s; everything is converted to the simulator's
microsecond/bit units here so the rest of the code never sees the file
format.

Unknown keys are rejected rather than ignored -- a typo like
``target_delay_m`` should fail loudly, not silently simulate defaults.
Error messages carry the path of the offending key (``hops[1].link.type``).
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Optional

import yaml

from .engine import FlowSpec, HopSpec, ShortFlowLoad, Topology
from .links import FixedLink, LinkProcess, StepLink, load_trace_file
from .router import AbcParams


class ConfigError(ValueError):
    """A scenario file failed validation; the message names the key."""


_REQUIRED = object()
_MISSING = object()


def _type_name(value) -> str:
    return {bool: "boolean", int: "integer", float: "number", str: "string",
            list: "list", dict: "mapping"}.get(type(value), type(value).__name__)


class _Section:
    """One mapping from the file, consumed key by key so leftovers can error."""

    def __init__(self, data, path: str):
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: expected a mapping, got {_type_name(data)}")
        self._data = dict(data)
        self.path = path

    def _pop(self, key: str, default):
        value = self._data.pop(key, _MISSING)
        if value is _MISSING:
            if default is _REQUIRED:
                raise ConfigError(f"{self.path}.{key}: required key is missing")
            return default
        return value

    def number(self, key: str, default=_REQUIRED, minimum=None) -> float:
        value = self._pop(key, default)
        if value is default and value is not _REQUIRED:
            return value
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{self.path}.{key}: expected a number, got {_type_name(value)}")
        if minimum is not None and value < minimum:
            raise ConfigError(f"{self.path}.{key}: must be >= {minimum}, got {value}")
        return float(value)

    def integer(self, key: str, default=_REQUIRED, minimum=None) -> int:
        value = self._pop(key, default)
        if value is default and value is not _REQUIRED:
            return value
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{self.path}.{key}: expected an integer, got {_type_name(value)}")
        if minimum is not None and value < minimum:
            raise ConfigError(f"{self.path}.{key}: must be >= {minimum}, got {value}")
        return value

    def boolean(self, key: str, default=_REQUIRED) -> bool:
        value = self._pop(key, default)
        if value is default and value is not _REQUIRED:
            return value
        if not isinstance(value, bool):
            raise ConfigError(f"{self.path}.{key}: expected true/false, got {_type_name(value)}")
        return value

    def string(self, key: str, default=_REQUIRED, choices=None) -> str:
        value = self._pop(key, default)
        if value is default and value is not _REQUIRED:
            return value
        if not isinstance(value, str):
            raise ConfigError(f"{self.path}.{key}: expected a string, got {_type_name(value)}")
        if choices is not None and value not in choices:
            raise ConfigError(
                f"{self.path}.{key}: expected one of {sorted(choices)}, got {value!r}")
        return value

    def section(self, key: str, default=_REQUIRED) -> Optional["_Section"]:
        value = self._pop(key, default)
        if value is default and value is not _REQUIRED:
            return None if value is None else _Section(value, f"{self.path}.{key}")
        return _Section(value, f"{self.path}.{key}")

    def items(self, key: str, default=_REQUIRED) -> list:
        value = self._pop(key, default)
        if value is default and value is not _REQUIRED:
            return value if isinstance(value, list) else []
        if not isinstance(value, list):
            raise ConfigError(f"{self.path}.{key}: expected a list, got {_type_name(value)}")
        return value

    def finish(self) -> None:
        if self._data:
            key = sorted(self._data)[0]
            raise ConfigError(f"{self.path}.{key}: unknown key")


def _ms(value: Optional[float]):
    return None if value is None else int(round(value * 1000))


def _parse_abc_params(sec: Optional[_Section], base: AbcParams) -> AbcParams:
    if sec is None:
        return base
    params = dataclasses.replace(
        base,
        eta=sec.number("eta", base.eta, minimum=0.0),
        delta_us=_ms(sec.number("delta_ms", base.delta_us / 1000, minimum=0.001)),
        target_delay_us=_ms(sec.number("target_delay_ms", base.target_delay_us / 1000,
                                       minimum=0.0)),
        token_limit=sec.number("token_limit", base.token_limit, minimum=1.0),
        rate_window_us=_ms(sec.number("rate_window_ms", base.rate_window_us / 1000,
                                      minimum=0.001)),
        weight_interval_us=_ms(sec.number("weight_interval_ms",
                                          base.weight_interval_us / 1000, minimum=0.001)),
        demand_headroom=sec.number("demand_headroom", base.demand_headroom, minimum=0.0),
        demand_smoothing=sec.number("demand_smoothing", base.demand_smoothing,
                                    minimum=0.0),
        demand_memory=sec.integer("demand_memory", base.demand_memory, minimum=1),
        sketch_size=sec.integer("sketch_size", base.sketch_size, minimum=1),
    )
    sec.finish()
    try:
        params.validate()
    except ValueError as exc:
        raise ConfigError(f"{sec.path}: {exc}") from exc
    return params


def _parse_link(sec: _Section, base_dir: str) -> LinkProcess:
    kind = sec.string("type", choices={"fixed", "step", "trace"})
    try:
        if kind == "fixed":
            link = FixedLink(sec.number("rate_mbps", minimum=0.001) * 1e6)
        elif kind == "step":
            rows = sec.items("segments")
            if not rows:
                raise ConfigError(f"{sec.path}.segments: needs at least one [start_s, rate_mbps]")
            schedule = []
            for i, row in enumerate(rows):
                if (not isinstance(row, list) or len(row) != 2
                        or not all(isinstance(v, (int, float)) for v in row)):
                    raise ConfigError(
                        f"{sec.path}.segments[{i}]: expected [start_s, rate_mbps]")
                schedule.append((int(round(row[0] * 1e6)), row[1] * 1e6))
            link = StepLink(schedule)
        else:
            rel = sec.string("file")
            path = rel if os.path.isabs(rel) else os.path.join(base_dir, rel)
            try:
                link = load_trace_file(path)
            except OSError as exc:
                raise ConfigError(f"{sec.path}.file: cannot read {path}: {exc}") from exc
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{sec.path}: {exc}") from exc
    sec.finish()
    return link


def _parse_hop(sec: _Section, base_dir: str, base_params: AbcParams) -> HopSpec:
    hop_id = sec.string("id")
    kind = sec.string("kind", "abc", choices={"abc", "droptail"})
    link = _parse_link(sec.section("link"), base_dir)
    spec = HopSpec(
        hop_id=hop_id,
        link=link,
        kind=kind,
        buffer_pkts=sec.integer("buffer_pkts", 250, minimum=1),
        abc_params=_parse_abc_params(sec.section("abc_params", None), base_params),
        oracle_window_us=_ms(sec.number("oracle_window_ms", 20.0, minimum=0.001)),
        ecn_threshold_pkts=sec.integer("ecn_threshold_pkts", None, minimum=1),
        delay_to_next_us=_ms(sec.number("delay_to_next_ms", 0.0, minimum=0.0)),
        initial_weight=sec.number("initial_weight", 1.0, minimum=0.0),
    )
    if kind == "abc" and spec.ecn_threshold_pkts is not None:
        raise ConfigError(f"{sec.path}.ecn_threshold_pkts: only valid on droptail hops")
    if spec.initial_weight > 1:
        raise ConfigError(f"{sec.path}.initial_weight: must be <= 1, got {spec.initial_weight}")
    sec.finish()
    return spec


def _parse_flow(sec: _Section) -> FlowSpec:
    stop_s = sec.number("stop_s", None, minimum=0.0)
    spec = FlowSpec(
        flow_id=sec.string("id"),
        scheme=sec.string("scheme", "abc", choices={"abc", "cubic"}),
        start_us=int(round(sec.number("start_s", 0.0, minimum=0.0) * 1e6)),
        stop_us=None if stop_s is None else int(round(stop_s * 1e6)),
        fwd_delay_us=_ms(sec.number("forward_delay_ms", 10.0, minimum=0.0)),
        rev_delay_us=_ms(sec.number("reverse_delay_ms", 40.0, minimum=0.0)),
        initial_window=sec.number("initial_window", 10.0, minimum=1.0),
        additive_increase=sec.boolean("additive_increase", True),
        bytes_budget=sec.integer("bytes", None, minimum=1),
    )
    if spec.stop_us is not None and spec.stop_us <= spec.start_us:
        raise ConfigError(f"{sec.path}.stop_s: must be after start_s")
    sec.finish()
    return spec


def _parse_shorts(sec: Optional[_Section]) -> Optional[ShortFlowLoad]:
    if sec is None:
        return None
    load = ShortFlowLoad(
        load_bps=sec.number("load_mbps", minimum=0.0) * 1e6,
        flow_bytes=sec.integer("flow_kbytes", 10, minimum=1) * 1000,
        fwd_delay_us=_ms(sec.number("forward_delay_ms", 10.0, minimum=0.0)),
        rev_delay_us=_ms(sec.number("reverse_delay_ms", 40.0, minimum=0.0)),
        initial_window=sec.number("initial_window", 10.0, minimum=1.0),
    )
    sec.finish()
    return None if load.load_bps == 0 else load


@dataclass
class ScenarioConfig:
    """Everything needed to construct and run one simulation."""

    topology: Topology
    duration_us: int
    seed: int = 0
    sample_interval_us: int = 0
    receiver_coalesce: int = 2
    log_router_rows: bool = False


def parse_scenario(data: dict, base_dir: str = ".") -> ScenarioConfig:
    root = _Section(data, "scenario")
    base_params = _parse_abc_params(root.section("abc_params", None), AbcParams())
    hops = [_parse_hop(_Section(h, f"scenario.hops[{i}]"), base_dir, base_params)
            for i, h in enumerate(root.items("hops"))]
    flows = [_parse_flow(_Section(f, f"scenario.flows[{i}]"))
             for i, f in enumerate(root.items("flows", []))]
    cfg = ScenarioConfig(
        topology=Topology(hops, flows, _parse_shorts(root.section("shorts", None))),
        duration_us=int(round(root.number("duration_s", minimum=0.001) * 1e6)),
        seed=root.integer("seed", 0, minimum=0),
        sample_interval_us=_ms(root.number("sample_interval_ms", 0.0, minimum=0.0)),
        receiver_coalesce=root.integer("receiver_coalesce", 2, minimum=1),
        log_router_rows=root.boolean("log_router_rows", False),
    )
    root.finish()
    try:
        cfg.topology.validate()
    except ValueError as exc:
        raise ConfigError(f"scenario: {exc}") from exc
    return cfg


def load_scenario(path: str) -> ScenarioConfig:
    """Read and validate one YAML scenario file."""
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    if data is None:
        raise ConfigError(f"{path}: file is empty")
    return parse_scenario(data, base_dir=os.path.dirname(os.path.abspath(path)))
