"""YAML scenario files -> simulation topologies.

A scenario describes the run (duration, seed, sampling), the hops along
the single forward path, the long-lived flows, and an optional Poisson
load of short legacy transfers.  Times are seconds or milliseconds as
suffixed, rates are Mbit/s; everything is converted to the simulator's
microsecond/bit units here so the rest of the code never sees the file
format.  Every default and every rule belongs to the spec dataclasses
(``HopSpec.validate`` and friends), so a file and the Python API accept
the same scenarios; this module only maps keys onto fields.

Unknown keys are rejected rather than ignored -- a typo like
``target_delay_m`` should fail loudly, not silently simulate defaults.
Error messages carry the path of the offending key (``hops[1].link.type``).
"""

from __future__ import annotations

import dataclasses
import math
import os
import re

import yaml

from .engine import FlowSpec, HopSpec, ScenarioConfig, ShortFlowLoad, Topology
from .links import MAX_RATE_BPS, FixedLink, LinkProcess, StepLink, load_trace_file
from .router import AbcParams


class ConfigError(ValueError):
    """A scenario file failed validation; the message names the key."""


_EXPECTED = {float: "a number", int: "an integer", bool: "true/false", str: "a string",
             list: "a list", dict: "a mapping"}


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

    def get(self, key: str, kind: type, required: bool = False):
        """The value of ``key`` checked as ``kind``, or None when absent or null.

        A ``float`` key comes back as a float (YAML integers too), a mapping
        as a ``_Section``.
        """
        path = f"{self.path}.{key}"
        value = self._data.pop(key, None)
        if value is None:
            if required:
                raise ConfigError(f"{path}: required key is missing")
            return None
        if kind is dict:
            return _Section(value, path)
        if (isinstance(value, bool) != (kind is bool)
                or not isinstance(value, (int, float) if kind is float else kind)):
            raise ConfigError(f"{path}: expected {_EXPECTED[kind]}, got {_type_name(value)}")
        if kind is float and not math.isfinite(value):
            raise ConfigError(f"{path}: expected a finite number, got {value}")
        return float(value) if kind is float else value

    def finish(self) -> None:
        if self._data:
            key = sorted(self._data)[0]
            raise ConfigError(f"{self.path}.{key}: unknown key")


def _ms(value: float) -> int:
    return int(round(value * 1000))


def _s(value: float) -> int:
    return int(round(value * 1e6))


def _build(cls, sec: _Section, table, **given):
    """Map ``sec`` onto a ``cls`` spec by ``table`` rows and validate it.

    Each row is ``(yaml key, field, yaml type, conversion or None)``.  An
    absent key keeps the ``given`` value or the dataclass default; a field
    with neither is a required key.  The spec's ValueError comes back as a
    ConfigError naming the keys the user wrote instead of the fields.
    """
    defaults = {f.name for f in dataclasses.fields(cls) if f.default is not dataclasses.MISSING
                or f.default_factory is not dataclasses.MISSING}
    for key, name, kind, convert in table:
        value = sec.get(key, kind, required=name not in defaults and name not in given)
        if value is not None:
            given[name] = value if convert is None else convert(value)
    sec.finish()
    spec = cls(**given)
    try:
        spec.validate()
    except ValueError as exc:
        # Each field becomes its key, but a value quoted by repr() ('x', or
        # "x" when it holds a ') is matched whole and stays as written.
        keys = {name: key for key, name, _, _ in table}
        fields = "|".join(keys)
        msg = re.sub(rf"""'(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*"|\b(?:{fields})\b""",
                     lambda m: keys.get(m[0], m[0]), str(exc))
        named = msg.partition(":")[0] in keys.values()
        raise ConfigError(f"{sec.path}{'.' if named else ': '}{msg}") from exc
    return spec


_ABC = [
    ("eta", "eta", float, None),
    ("delta_ms", "delta_us", float, _ms),
    ("target_delay_ms", "target_delay_us", float, _ms),
    ("token_limit", "token_limit", float, None),
    ("rate_window_ms", "rate_window_us", float, _ms),
    ("weight_interval_ms", "weight_interval_us", float, _ms),
    ("demand_headroom", "demand_headroom", float, None),
    ("demand_smoothing", "demand_smoothing", float, None),
    ("demand_memory", "demand_memory", int, None),
    ("sketch_size", "sketch_size", int, None),
]

_FLOW = [
    ("id", "flow_id", str, None),
    ("scheme", "scheme", str, None),
    ("start_s", "start_us", float, _s),
    ("stop_s", "stop_us", float, _s),
    ("forward_delay_ms", "fwd_delay_us", float, _ms),
    ("reverse_delay_ms", "rev_delay_us", float, _ms),
    ("initial_window", "initial_window", float, None),
    ("additive_increase", "additive_increase", bool, None),
    ("bytes", "bytes_budget", int, None),
]

_SHORTS = [
    ("load_mbps", "load_bps", float, lambda mbps: mbps * 1e6),
    ("flow_kbytes", "flow_bytes", int, lambda kbytes: kbytes * 1000),
    ("forward_delay_ms", "fwd_delay_us", float, _ms),
    ("reverse_delay_ms", "rev_delay_us", float, _ms),
    ("initial_window", "initial_window", float, None),
]

_SCENARIO = [
    ("duration_s", "duration_us", float, _s),
    ("seed", "seed", int, None),
    ("sample_interval_ms", "sample_interval_us", float, _ms),
    ("receiver_coalesce", "receiver_coalesce", int, None),
    ("log_router_rows", "log_router_rows", bool, None),
]


def _check_servable(where: str, rate_mbps: float) -> None:
    if rate_mbps * 1e6 > MAX_RATE_BPS:
        raise ConfigError(f"{where}must be <= {MAX_RATE_BPS / 1e6:g} "
                          f"(one MTU per microsecond), got {rate_mbps:g}")


def _parse_link(sec: _Section, base_dir: str) -> LinkProcess:
    kind = sec.get("type", str, required=True)
    if kind not in ("fixed", "step", "trace"):
        raise ConfigError(
            f"{sec.path}.type: expected one of ['fixed', 'step', 'trace'], got {kind!r}")
    try:
        if kind == "fixed":
            rate_mbps = sec.get("rate_mbps", float, required=True)
            link = FixedLink(rate_mbps * 1e6)
            _check_servable(f"{sec.path}.rate_mbps: ", rate_mbps)
        elif kind == "step":
            rows = sec.get("segments", list, required=True)
            schedule = []
            for i, row in enumerate(rows):
                if (not isinstance(row, list) or len(row) != 2
                        or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                                   and math.isfinite(v) for v in row)):
                    raise ConfigError(f"{sec.path}.segments[{i}]: expected "
                                      f"[start_s, rate_mbps] as finite numbers, got {row!r}")
                schedule.append((int(round(row[0] * 1e6)), row[1] * 1e6))
            link = StepLink(schedule)
            for i, (_, rate_mbps) in enumerate(rows):
                _check_servable(f"{sec.path}.segments[{i}]: rate_mbps ", rate_mbps)
        else:
            rel = sec.get("file", str, required=True)
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


def parse_scenario(data: dict, base_dir: str = ".") -> ScenarioConfig:
    root = _Section(data, "scenario")
    base = root.get("abc_params", dict)
    base = AbcParams() if base is None else _build(AbcParams, base, _ABC)
    hop_table = [
        ("id", "hop_id", str, None),
        ("kind", "kind", str, None),
        ("link", "link", dict, lambda sec: _parse_link(sec, base_dir)),
        ("buffer_pkts", "buffer_pkts", int, None),
        ("abc_params", "abc_params", dict,
         lambda sec: _build(AbcParams, sec, _ABC, **dataclasses.asdict(base))),
        ("ecn_threshold_pkts", "ecn_threshold_pkts", int, None),
        ("delay_to_next_ms", "delay_to_next_us", float, _ms),
    ]
    hops = [_build(HopSpec, _Section(h, f"scenario.hops[{i}]"), hop_table, abc_params=base)
            for i, h in enumerate(root.get("hops", list, required=True))]
    flows = [_build(FlowSpec, _Section(f, f"scenario.flows[{i}]"), _FLOW)
             for i, f in enumerate(root.get("flows", list) or [])]
    shorts = root.get("shorts", dict)
    if shorts is not None:
        shorts = _build(ShortFlowLoad, shorts, _SHORTS)
        # Zero offered load means the section is inert.
        shorts = None if shorts.load_bps == 0 else shorts
    return _build(ScenarioConfig, root, _SCENARIO, topology=Topology(hops, flows, shorts))


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
