"""Scenario parsing and the command-line front end."""

import argparse
import collections
import copy
import glob
import hashlib
import os
import re
import subprocess
import sys
from concurrent.futures import Future
from pathlib import Path

import pytest
import yaml

import accelbrake
from accelbrake import cli, metrics
from accelbrake.cli import main
from accelbrake.config import ConfigError, load_scenario, parse_scenario
from accelbrake.engine import Simulation
from accelbrake.fluid import FluidParams
from accelbrake.links import FixedLink, StepLink, TraceLink

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")

MINIMAL = {
    "duration_s": 1.0,
    "hops": [{"id": "btl", "link": {"type": "fixed", "rate_mbps": 24}}],
    "flows": [{"id": "f0"}],
}


def _scenario(**overrides):
    data = copy.deepcopy(MINIMAL)
    data.update(overrides)
    return data


def _write_scenario(tmp_path, data, name="scn.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return str(path)


# ------------------------------------------------------------------- parsing

def test_minimal_scenario_defaults():
    cfg = parse_scenario(_scenario())
    assert cfg.duration_us == 1_000_000
    assert cfg.seed == 0
    assert cfg.sample_interval_us == 0
    assert cfg.receiver_coalesce == 2
    hop = cfg.topology.hops[0]
    assert hop.kind == "abc"
    assert hop.buffer_pkts == 250
    assert isinstance(hop.link, FixedLink)
    assert hop.link.rate_at(0) == 24e6
    flow = cfg.topology.flows[0]
    assert flow.scheme == "abc"
    assert flow.fwd_delay_us == 10_000
    assert flow.rev_delay_us == 40_000
    assert cfg.topology.shorts is None


def test_millisecond_keys_become_microseconds():
    data = _scenario(
        abc_params={"delta_ms": 27, "target_delay_ms": 10},
        sample_interval_ms=100,
    )
    data["hops"][0]["delay_to_next_ms"] = 5
    data["flows"][0]["forward_delay_ms"] = 2.5
    cfg = parse_scenario(data)
    params = cfg.topology.hops[0].abc_params
    assert params.delta_us == 27_000
    assert params.target_delay_us == 10_000
    assert cfg.sample_interval_us == 100_000
    assert cfg.topology.hops[0].delay_to_next_us == 5_000
    assert cfg.topology.flows[0].fwd_delay_us == 2_500


def test_hop_level_params_override_scenario_base():
    data = _scenario(abc_params={"delta_ms": 27})
    data["hops"][0]["abc_params"] = {"delta_ms": 99}
    cfg = parse_scenario(data)
    assert cfg.topology.hops[0].abc_params.delta_us == 99_000


def test_step_link_segments():
    data = _scenario()
    data["hops"][0]["link"] = {"type": "step", "segments": [[0, 12], [1.5, 24]]}
    link = parse_scenario(data).topology.hops[0].link
    assert isinstance(link, StepLink)
    assert link.rate_at(0) == 12e6
    assert link.rate_at(1_500_000) == 24e6


def test_link_rates_up_to_one_mtu_per_microsecond():
    # 12000 Mbit/s serializes one 1500-byte packet in exactly 1 us.
    for link in ({"type": "fixed", "rate_mbps": 12_000},
                 {"type": "step", "segments": [[0, 24], [1, 12_000]]}):
        data = _scenario()
        data["hops"][0]["link"] = link
        assert parse_scenario(data).topology.hops[0].link.rate_at(2_000_000) == 12e9


def test_trace_link_resolved_against_scenario_dir(tmp_path):
    (tmp_path / "cell.txt").write_text("5\n10\n")
    data = _scenario()
    data["hops"][0]["link"] = {"type": "trace", "file": "cell.txt"}
    cfg = load_scenario(_write_scenario(tmp_path, data))
    link = cfg.topology.hops[0].link
    assert isinstance(link, TraceLink)
    assert link.period_us == 10_000


def test_short_flow_section():
    cfg = parse_scenario(_scenario(shorts={"load_mbps": 5, "flow_kbytes": 20}))
    assert cfg.topology.shorts.load_bps == 5e6
    assert cfg.topology.shorts.flow_bytes == 20_000
    # Zero offered load means the section is inert.
    assert parse_scenario(_scenario(shorts={"load_mbps": 0})).topology.shorts is None


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.pop("duration_s"), "scenario.duration_s: required key is missing"),
        (lambda d: d.update(duration_s="ten"), "scenario.duration_s: expected a number"),
        (lambda d: d["hops"][0].update(color="red"), "scenario.hops[0].color: unknown key"),
        (lambda d: d["hops"][0].update(ecn_threshold_pkts=5),
         "ecn_threshold_pkts: only valid on droptail"),
        (lambda d: d["flows"][0].update(stop_s=0.0), "stop_s: must be after start_s"),
        (lambda d: d["flows"][0].update(initial_window=0.5), "must be >= 1"),
        (lambda d: d["flows"][0].update(additive_increase=3), "expected true/false"),
        (lambda d: d["hops"][0]["link"].update(type="wormhole"), "expected one of"),
        (lambda d: d["hops"][0].update(link={"type": "step", "segments": [[0, 12], "x"]}),
         "segments[1]: expected [start_s, rate_mbps]"),
        (lambda d: d["hops"][0].update(link={"type": "step", "segments": [[0, float("nan")]]}),
         "scenario.hops[0].link.segments[0]: expected [start_s, rate_mbps] as finite numbers"),
        (lambda d: d["hops"][0].update(link={"type": "step", "segments": [[0, float("inf")]]}),
         "scenario.hops[0].link.segments[0]: expected [start_s, rate_mbps] as finite numbers"),
        (lambda d: d["hops"][0].update(
            link={"type": "step", "segments": [[0, 12], [float("inf"), 24]]}),
         "scenario.hops[0].link.segments[1]: expected [start_s, rate_mbps] as finite numbers"),
        (lambda d: d["hops"][0].update(link={"type": "step", "segments": [[0, True]]}),
         "scenario.hops[0].link.segments[0]: expected [start_s, rate_mbps] as finite numbers"),
        (lambda d: d["hops"][0].update(link={"type": "step", "segments": [[0, 1e303]]}),
         "scenario.hops[0].link: step schedule rates must be finite"),
        (lambda d: d["hops"][0]["link"].update(rate_mbps=1e303),
         "scenario.hops[0].link: fixed link rate must be positive and finite"),
        (lambda d: d["hops"][0]["link"].update(rate_mbps=48_000),
         "scenario.hops[0].link.rate_mbps: must be <= 12000 (one MTU per microsecond), "
         "got 48000"),
        (lambda d: d["hops"][0].update(link={"type": "step", "segments": [[0, 12], [1, 12_001]]}),
         "scenario.hops[0].link.segments[1]: rate_mbps must be <= 12000"),
        (lambda d: d.update(abc_params={"eta": 0}), "scenario.abc_params: eta"),
        (lambda d: d.update(flows=[]), "at least one flow"),
    ],
)
def test_malformed_scenarios_name_the_key(mutate, fragment):
    data = _scenario()
    mutate(data)
    with pytest.raises(ConfigError) as err:
        parse_scenario(data)
    assert fragment in str(err.value).replace("'", "")


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d["flows"][0].update(bytes=0), "scenario.flows[0].bytes: must be >= 1, got 0"),
    (lambda d: d["flows"][0].update(forward_delay_ms=-1),
     "scenario.flows[0].forward_delay_ms: must be >= 0, got -1000"),
    (lambda d: d["flows"][0].update(start_s=2, stop_s=1), "scenario.flows[0].stop_s: must be after"),
    (lambda d: d.update(shorts={"load_mbps": 5, "flow_kbytes": 0}),
     "scenario.shorts.flow_kbytes: must be >= 1, got 0"),
    (lambda d: d.update(abc_params={"weight_interval_ms": 0}),
     "scenario.abc_params: weight_interval_ms must be > 0, got 0"),
    (lambda d: d["hops"][0].update(abc_params={"sketch_size": 0}),
     "scenario.hops[0].abc_params: sketch_size must be >= 1, got 0"),
    (lambda d: d["hops"][0].update(abc_params={"rate_window_ms": 0.0004}),
     "scenario.hops[0].abc_params: rate_window_ms must be > 0, got 0"),
    (lambda d: d["hops"][0].update(kind="red"), "scenario.hops[0].kind: unknown kind"),
    (lambda d: d.update(hops=d["hops"] * 2), "scenario: duplicate hop id"),
    (lambda d: d.update(seed=-1), "scenario.seed: must be >= 0, got -1"),
    (lambda d: d.update(duration_s=float("nan")), "scenario.duration_s: expected a finite"),
    (lambda d: d.update(flows=[{"id": "short000001"}], shorts={"load_mbps": 5}),
     "scenario: flow id 'short000001' is reserved for short flows"),
    # Ids name the files flows/<id>.csv and routers/<hop>.csv.
    (lambda d: d["flows"][0].update(id="x/y"),
     "scenario.flows[0].id: must be usable as a file name, got 'x/y'"),
    (lambda d: d["flows"][0].update(id=""),
     "scenario.flows[0].id: must be usable as a file name, got ''"),
    (lambda d: d["flows"][0].update(id="../escaped"),
     "scenario.flows[0].id: must be usable as a file name, got '../escaped'"),
    (lambda d: d["flows"][0].update(id=".."),
     "scenario.flows[0].id: must be usable as a file name, got '..'"),
    (lambda d: d["hops"][0].update(id="."),
     "scenario.hops[0].id: must be usable as a file name, got '.'"),
    (lambda d: d["hops"][0].update(id="a/b"),
     "scenario.hops[0].id: must be usable as a file name, got 'a/b'"),
    # A quoted value keeps the user's spelling, even where it names a field.
    (lambda d: d["flows"][0].update(id="x/flow_id"),
     "scenario.flows[0].id: must be usable as a file name, got 'x/flow_id'"),
    (lambda d: d["flows"][0].update(scheme="stop_us"),
     "scenario.flows[0].scheme: unknown scheme 'stop_us', expected abc or cubic"),
    (lambda d: d["flows"][0].update(id="it's/start_us"),
     "scenario.flows[0].id: must be usable as a file name, got \"it's/start_us\""),
    # Ids are pasted into summary.txt's key=value lines.
    (lambda d: d["hops"][0].update(id="cell\nhop.x.drops=99"),
     "scenario.hops[0].id: must hold no '=' and no non-printable character, "
     "got 'cell\\nhop.x.drops=99'"),
    (lambda d: d["hops"][0].update(id="a=b"),
     "scenario.hops[0].id: must hold no '=' and no non-printable character, got 'a=b'"),
    (lambda d: d["flows"][0].update(id="tab\there"),
     "scenario.flows[0].id: must hold no '=' and no non-printable character, "
     "got 'tab\\there'"),
    (lambda d: d["flows"][0].update(id="nul\x00"),
     "scenario.flows[0].id: must hold no '=' and no non-printable character, "
     "got 'nul\\x00'"),
])
def test_spec_rules_name_the_yaml_key(mutate, message):
    data = _scenario()
    mutate(data)
    with pytest.raises(ConfigError) as err:
        parse_scenario(data)
    assert message in str(err.value)


def test_values_round_to_microseconds_before_checks():
    data = _scenario(duration_s=0.0005)
    data["hops"][0]["abc_params"] = {"rate_window_ms": 0.0006}
    cfg = parse_scenario(data)
    assert cfg.duration_us == 500
    assert cfg.topology.hops[0].abc_params.rate_window_us == 1


# The capacity oracle averages over abc_params.rate_window_ms, and the ABC
# queue's weight starts at 1.0: neither is a hop key of its own.
@pytest.mark.parametrize("key, value", [("oracle_window_ms", 20), ("initial_weight", 0.5)])
def test_removed_hop_keys_are_unknown(tmp_path, capsys, key, value):
    data = _scenario()
    data["hops"][0][key] = value
    assert main(["validate", "--config", _write_scenario(tmp_path, data)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: scenario.hops[0].{key}: unknown key\n"
    assert captured.out == ""


def test_null_keys_keep_their_defaults():
    data = _scenario(shorts=None, abc_params=None)
    data["flows"][0].update(stop_s=None, bytes=None)
    cfg = parse_scenario(data)
    assert cfg.topology.shorts is None
    assert cfg.topology.flows[0].stop_us is None


def test_load_scenario_file_errors(tmp_path):
    missing = tmp_path / "nope.yaml"
    with pytest.raises(ConfigError, match="cannot read"):
        load_scenario(str(missing))
    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    with pytest.raises(ConfigError, match="file is empty"):
        load_scenario(str(empty))
    broken = tmp_path / "broken.yaml"
    broken.write_text("duration_s: [unclosed\n")
    with pytest.raises(ConfigError, match="invalid YAML"):
        load_scenario(str(broken))


def test_shipped_scenarios_parse():
    paths = glob.glob(os.path.join(SCENARIO_DIR, "*.yaml"))
    assert paths, "scenario directory should ship examples"
    for path in paths:
        cfg = load_scenario(path)
        assert cfg.duration_us > 0


# ----------------------------------------------------------------------- cli

@pytest.fixture
def quick_scenario(tmp_path):
    data = _scenario(duration_s=0.5, sample_interval_ms=100)
    return _write_scenario(tmp_path, data)


def test_cli_validate_ok(quick_scenario, capsys):
    assert main(["validate", "--config", quick_scenario]) == 0
    out = capsys.readouterr().out
    assert "ok" in out
    assert "flow f0" in out


def test_cli_validate_rejects_bad_file(tmp_path, capsys):
    bad = _write_scenario(tmp_path, _scenario(duration_s="ten"))
    assert main(["validate", "--config", bad]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_run_writes_outputs(quick_scenario, tmp_path, capsys):
    out_dir = tmp_path / "results"
    assert main(["run", "--config", quick_scenario, "--out", str(out_dir)]) == 0
    assert "seed 0:" in capsys.readouterr().out
    assert (out_dir / "summary.txt").exists()
    assert (out_dir / "flows" / "f0.csv").exists()


@pytest.mark.parametrize("overrides, args, util", [
    ({"duration_s": 0.002}, [], "0.000"),  # ends before the first packet arrives
    ({"hops": [{"id": "btl", "link": {"type": "step", "segments": [[0, 0]]}}]}, [], "n/a"),
    ({}, ["--duration", "0"], "n/a"),  # no steady window either
])
def test_cli_run_reports_hop_that_delivered_nothing(tmp_path, capsys, overrides, args, util):
    path = _write_scenario(tmp_path, _scenario(**overrides))
    assert main(["run", "--config", path, "--out", str(tmp_path / "out"), *args]) == 0
    out = capsys.readouterr().out
    assert f"hop btl: utilization {util}, p95 queue delay n/a, drops 0" in out
    assert "flow f0: 0.000 Mbit/s steady" in out
    # summary.txt leaves out what stdout prints as n/a or 0, and nothing else.
    summary = (tmp_path / "out" / "summary.txt").read_text().splitlines()
    expected = ["hop.btl.dequeued_bytes=0", "hop.btl.drops=0"]
    expected += [] if util == "n/a" else [f"hop.btl.utilization={util}000"]
    assert summary[4:] == expected


def test_cli_run_seed_override(quick_scenario, capsys):
    assert main(["run", "--config", quick_scenario, "--seed", "5"]) == 0
    assert "seed 5:" in capsys.readouterr().out


def test_cli_run_reads_the_file_once(quick_scenario, monkeypatch, capsys):
    # The run uses the config that was checked, not a second reading of the file.
    calls = []

    def counting_load(path):
        calls.append(path)
        return load_scenario(path)

    monkeypatch.setattr("accelbrake.config.load_scenario", counting_load)
    assert main(["run", "--config", quick_scenario, "--seed", "3"]) == 0
    assert calls == [quick_scenario]
    assert "seed 3:" in capsys.readouterr().out


def test_cli_run_has_no_validate_only():
    # `validate` is the one way to check a scenario without running it.
    proc = subprocess.run([sys.executable, "-m", "accelbrake.cli", "run", "--config", "x.yaml",
                           "--validate-only"],
                          capture_output=True, env=_cli_env(), text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.endswith("error: unrecognized arguments: --validate-only\n")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("data, code, out, err", [
    (MINIMAL, 0, "{path}: ok\n  duration 1s, seed 0\n  hop btl: abc, buffer 250 pkts\n"
                 "  flow f0: abc, base rtt 50ms\n", ""),
    (_scenario(duration_s="ten"), 2, "",
     "error: scenario.duration_s: expected a number, got string\n"),
    (None, 2, "", "error: cannot read {path}: [Errno 2] No such file or directory: '{path}'\n"),
])
def test_cli_validate_prints_digest_or_error(tmp_path, capsys, data, code, out, err):
    path = str(tmp_path / "missing.yaml") if data is None else _write_scenario(tmp_path, data)
    assert main(["validate", "--config", path]) == code
    assert capsys.readouterr() == (out.format(path=path), err.format(path=path))


@pytest.mark.parametrize("args, message", [
    (["--duration", "-1"], "error: duration_us: must be >= 0, got -1000000"),
    (["--seed", "-1"], "error: seed: must be >= 0, got -1"),
    (["--seeds", "1,-2"], "error: seed: must be >= 0, got -2"),
])
def test_cli_run_checks_overrides(args, message, capsys):
    path = os.path.join(SCENARIO_DIR, "single_trace.yaml")
    assert main(["run", "--config", path, *args]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_cli_seed_sweep_across_processes(quick_scenario, tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    rc = main(["run", "--config", quick_scenario, "--seeds", "1,2",
               "--jobs", "2", "--out", str(out_dir), "--duration", "0.3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "seed 1:" in out and "seed 2:" in out
    assert (out_dir / "seed_1" / "summary.txt").exists()
    assert (out_dir / "seed_2" / "summary.txt").exists()


def test_cli_sweep_into_closed_pipe_exits_1(quick_scenario, tmp_path):
    # As in `accelbrake run --seeds 1,2 | head -1`, the reader of stdout goes
    # away after the first line.  That is not an output-directory failure:
    # the command exits 1 without a traceback, and the second run still
    # writes its directory.  One worker runs the seeds in turn, so the
    # second summary is printed well after the pipe is closed.
    out_dir = tmp_path / "sweep"
    proc = subprocess.Popen(
        [sys.executable, "-m", "accelbrake.cli", "run", "--config", quick_scenario,
         "--seeds", "1,2", "--jobs", "1", "--duration", "5", "--out", str(out_dir)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env(), text=True)
    assert proc.stdout.readline().startswith("seed 1:")
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert "None" not in err and "Traceback" not in err, err
    assert (out_dir / "seed_2" / "summary.txt").exists()


def _cli_env():
    """The environment for ``python -m accelbrake.cli``, with this package first."""
    env = dict(os.environ)
    src = str(Path(accelbrake.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _cli_into_closed_pipe(args):
    """Run the CLI with stdout on a pipe whose reader closed before it started."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run([sys.executable, "-m", "accelbrake.cli", *args],
                              stdout=write_end, stderr=subprocess.PIPE, env=_cli_env(),
                              text=True, timeout=120)
    finally:
        os.close(write_end)


@pytest.mark.parametrize("command, files", [
    (["fluid", "--horizon-s", "2"], ["--out"]),
    (["wifi-estimate", "--generate", "--duration-s", "1"], ["--save-trace", "--out"]),
])
def test_companion_command_into_closed_pipe_exits_1(tmp_path, command, files):
    # As in `accelbrake fluid | (exec 0<&-; true)`: the first line finds no
    # reader.  The command exits 1 without a traceback, and still writes
    # every file it was asked for, the same bytes as with a reader.
    def with_files(tag):
        args = list(command)
        for flag in files:
            args += [flag, str(tmp_path / f"{tag}{flag}.csv")]
        return args

    proc = _cli_into_closed_pipe(with_files("closed"))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr, proc.stderr
    assert main(with_files("read")) == 0
    for flag in files:
        written = (tmp_path / f"closed{flag}.csv").read_bytes()
        assert written.count(b"\n") > 100
        assert written == (tmp_path / f"read{flag}.csv").read_bytes()


# sha256 of stdout and of summary.txt for `run --duration 2 --out D` on each
# shipped scenario.  A change to any of these means a reported figure, its
# rounding, or an omission rule moved.
GOLDEN_REPORT_2S = {
    "bottleneck_switch": ("a3a602ddb764df36794c3815f602a361fc992a3524632c121cf4238dd0ddce81",
                          "f4aca9e9cd864c483f20b532abce9fc770ba4379f207dc597a1a5940d2e5e3bd"),
    "coexist_shorts": ("adecdae639cc4d68c360e764a88157661641f61a0c619e99b0d1b61e38abe45f",
                       "d50a9213e9835150c8706c28f23ff763e9110abda47f89f83796e66c69ec33a0"),
    "fairness_four": ("b0f977361142e3d5fe58800b251b10f75860930bbbca080e55615864bb5a0af4",
                      "ec19c2351a71972499f1883cfb355330bb37567c95640c8eca408781761d8e0c"),
    "serial_bottlenecks": ("e40fc4b58e3981a6a3ad23c08d9139bfebcab9605704c43cfda6b7fa220bdca9",
                           "c4f448aec02bfacb2005e70328cbe061ad15b5fcec92e61ebc75c30023b0c7e2"),
    "single_trace": ("dd193b2db66af22488e69839468d31d1576e82f235bf7d43818b9d57846dff31",
                     "affe12262b7a8d6be89a34d9d226e418f9d01b001e921186c786d3961461edb1"),
}

# sha256 of each flows/<id>.csv from the same runs: the sampled windows,
# inflight and send rate of every long flow.
GOLDEN_FLOWS_2S = {
    "bottleneck_switch": {
        "abc0.csv": "8d128aa0d9b15822074a8a4f05975e2ea2753119c04f5ef83831a04d8099ab08",
    },
    "coexist_shorts": {
        "abc0.csv": "46fe06279fefb667048d40db4ff71c4738cce5b54d4262d456803036bc962f4f",
        "abc1.csv": "7aaffba42384501917bbec15301aeccab0e8cc4e4909550c6195a7bc90e26968",
        "abc2.csv": "67eb6f3cd256e688fb72470a436f4b4b9c35df96f6b1f2f38c4d8132a6237c21",
        "cubic0.csv": "a3147bc082d684749b5d930fe4a7edb94efd113dbb030d0e1d6707e3dbbebb0a",
        "cubic1.csv": "354ddd80a002abba52d3d1aadf9d05ed3b3cf8cfc87aa86ad623ff3b4c511556",
        "cubic2.csv": "9d7213fa3529d23b3979c79a837439cc4c3c78b17c0eef4e058030d210faebff",
    },
    "fairness_four": {
        "abc0.csv": "86084da761bc0839e29a665ab6cdf91049d1e3e5e34ff99ed8d05bb84a6c0fa5",
        "abc1.csv": "b226d4034057f759e365d56765405d659564daf685fdc7c3974c63cb88c07ca0",
        "abc2.csv": "b226d4034057f759e365d56765405d659564daf685fdc7c3974c63cb88c07ca0",
        "abc3.csv": "b226d4034057f759e365d56765405d659564daf685fdc7c3974c63cb88c07ca0",
    },
    "serial_bottlenecks": {
        "abc0.csv": "3929397a053be633f65f33bf55c07c4487d9a2f22160c3826c8628d89696e807",
    },
    "single_trace": {
        "abc0.csv": "afc59e125e87840263de129d0e4e3519db685f08c68f36f6ba8380029bab8692",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN_REPORT_2S))
def test_cli_run_report_is_byte_identical(name, tmp_path, capsys):
    path = os.path.join(SCENARIO_DIR, f"{name}.yaml")
    assert main(["run", "--config", path, "--duration", "2", "--out", str(tmp_path)]) == 0
    stdout = capsys.readouterr().out.encode()
    summary = (tmp_path / "summary.txt").read_bytes()
    assert (hashlib.sha256(stdout).hexdigest(),
            hashlib.sha256(summary).hexdigest()) == GOLDEN_REPORT_2S[name]
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in (tmp_path / "flows").glob("*.csv")} == GOLDEN_FLOWS_2S[name]


def test_cli_run_scans_the_log_once_per_statistic(quick_scenario, tmp_path, monkeypatch, capsys):
    # stdout and summary.txt render one report, so each statistic runs once:
    # the throughputs, and the one hop's p50 and p95.
    calls = collections.Counter()
    for name in ("nearest_rank", "flow_throughputs"):
        assert not hasattr(cli, name)  # the CLI reaches them only through report()

        def counting(*args, _name=name, _real=getattr(metrics, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(metrics, name, counting)
    assert main(["run", "--config", quick_scenario, "--out", str(tmp_path / "out")]) == 0
    assert "seed 0:" in capsys.readouterr().out
    assert calls == {"nearest_rank": 2, "flow_throughputs": 1}


@pytest.mark.parametrize("jobs, workers", [("8", 2), ("1", 1), ("0", 2)])
def test_cli_jobs_capped_at_number_of_seeds(quick_scenario, monkeypatch, capsys, jobs, workers):
    # A fork pool launches every worker at the first submit, so the count
    # asked for is the count started.  This pool runs each job inline.
    seen = []

    class InlinePool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = Future()
            fut.set_result(fn(*args))
            return fut

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr("accelbrake.cli.os.cpu_count", lambda: 64)
    assert main(["run", "--config", quick_scenario, "--seeds", "1,2", "--jobs", jobs,
                 "--duration", "0.1"]) == 0
    assert seen == [workers]
    out = capsys.readouterr().out
    assert "seed 1:" in out and "seed 2:" in out


@pytest.fixture
def no_simulation(monkeypatch):
    """An unwritable --out must fail before anything is simulated."""
    def run(self):
        raise AssertionError("simulated before checking the output directory")

    monkeypatch.setattr(Simulation, "run", run)


@pytest.mark.parametrize("argv", [
    ["fluid", "--horizon-s", "1", "--out", "{bad}"],
    ["wifi-estimate", "--generate", "--duration-s", "1", "--out", "{bad}"],
    ["wifi-estimate", "--generate", "--duration-s", "1", "--save-trace", "{bad}"],
    ["run", "--config", "{scn}", "--duration", "0.1", "--out", "{bad}"],
    ["run", "--config", "{scn}", "--duration", "0.1", "--seeds", "1,2", "--jobs", "1",
     "--out", "{bad}"],
])
def test_cli_unwritable_output_exits_2(quick_scenario, tmp_path, capsys, no_simulation, argv):
    # A path below a regular file cannot be created, even by root.
    (tmp_path / "f").write_text("")
    bad = str(tmp_path / "f" / "x.csv")
    assert main([a.format(bad=bad, scn=quick_scenario) for a in argv]) == 2
    err = capsys.readouterr().err
    assert f"error: cannot write {bad}: Not a directory" in err
    assert "Traceback" not in err


def test_cli_unwritable_existing_directory_exits_2(quick_scenario, tmp_path, capsys,
                                                  no_simulation, monkeypatch):
    # Root may write anywhere, so the directory's permissions are faked.
    monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
    assert main(["run", "--config", quick_scenario, "--out", str(tmp_path)]) == 2
    assert f"error: cannot write {tmp_path}: Permission denied" in capsys.readouterr().err


def test_cli_run_rejects_bad_seed_list(quick_scenario, capsys):
    assert main(["run", "--config", quick_scenario, "--seeds", "1,x"]) == 2
    assert "--seeds" in capsys.readouterr().err


def test_cli_run_rejects_a_repeated_seed(quick_scenario, tmp_path, capsys, no_simulation):
    # Two runs of seed 1 would write one seed_1 directory at once.
    out_dir = tmp_path / "sweep"
    assert main(["run", "--config", quick_scenario, "--seeds", "1,2,1",
                 "--out", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --seeds repeats seed 1\n"
    assert captured.out == ""
    assert not out_dir.exists()


@pytest.mark.parametrize("seed, message", [
    ("x", "error: --seeds must be integers, got 'x'\n"),
    ("", "error: --seeds is empty\n"),
])
def test_cli_run_rejects_a_bad_seed(quick_scenario, capsys, no_simulation, seed, message):
    assert main(["run", "--config", quick_scenario, "--seed", seed]) == 2
    assert capsys.readouterr() == ("", message)


def _tree(root):
    """Every file under ``root``, by relative path, with its bytes."""
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


def test_cli_run_seed_is_a_second_spelling_of_seeds(quick_scenario, tmp_path, capsys):
    # One seed runs into --out itself, whichever spelling names it.
    outputs = []
    for flag in ("--seed", "--seeds"):
        assert main(["run", "--config", quick_scenario, flag, "2",
                     "--out", str(tmp_path / flag)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] and outputs[0].startswith("seed 2:")
    assert (tmp_path / "--seed" / "summary.txt").exists()
    assert _tree(tmp_path / "--seed") == _tree(tmp_path / "--seeds")


@pytest.mark.parametrize("args, seeds", [
    (["--seed", "3", "--seeds", "1,2"], [1, 2]),
    (["--seeds", "1,2", "--seed", "3"], [3]),
])
def test_cli_run_last_seed_option_wins(quick_scenario, capsys, args, seeds):
    assert main(["run", "--config", quick_scenario, *args, "--duration", "0.1",
                 "--jobs", "1"]) == 0
    out = capsys.readouterr().out
    assert [int(line.split()[1][:-1]) for line in out.splitlines()
            if line.startswith("seed ")] == seeds


ROOT = Path(__file__).resolve().parent.parent
REMOVED_OPTIONS = ("--validate-only", "--ai-interval-ms")


def _subcommands():
    """Each subcommand's parser, by name."""
    (action,) = [a for a in cli._build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_readme_documents_every_option():
    readme = (ROOT / "README.md").read_text()
    sections = dict(re.findall(r"^### `accelbrake ([\w-]+)`\n(.*?)(?=^##)", readme, re.M | re.S))
    for name, parser in _subcommands().items():
        options = {s for a in parser._actions for s in a.option_strings
                   if s.startswith("--") and s != "--help"}
        # "--seed" must not count as found inside "--seeds".
        missing = sorted(o for o in options
                         if not re.search(re.escape(o) + r"(?![\w-])", sections[name]))
        assert not missing, (name, missing)


def test_removed_options_stay_removed():
    for parser in _subcommands().values():
        assert not any(s in REMOVED_OPTIONS for a in parser._actions for s in a.option_strings)
    assert not any(o in (ROOT / "README.md").read_text() for o in REMOVED_OPTIONS)
    # CI names one only to check that it is refused.
    for line in (ROOT / ".github" / "workflows" / "tier1.yml").read_text().splitlines():
        if any(o in line for o in REMOVED_OPTIONS):
            assert "|| rc=$?" in line, line


def test_cli_fluid_reports_fixed_point(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    rc = main(["fluid", "--rate-mbps", "24", "--flows", "16",
               "--horizon-s", "3", "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "fixed point:" in stdout
    lines = out.read_text().splitlines()
    assert lines[0] == "t_s,queue_delay_s"
    assert len(lines) > 1_000


def test_cli_fluid_adds_one_packet_per_rtt(capsys):
    # As in the paper, each flow's window gains one packet per round trip.
    assert main(["fluid", "--rate-mbps", "24", "--flows", "16", "--rtt-ms", "50",
                 "--horizon-s", "1"]) == 0
    drift = FluidParams(n_flows=16, mu_bps=24e6, tau_s=0.05, ai_interval_s=0.05).drift
    assert f"{drift:+.4f}" == "+0.1400"
    assert capsys.readouterr().out.startswith(f"drift {drift:+.4f} pkts/rtt per rtt,")


def test_cli_fluid_rejects_coarse_step(capsys):
    assert main(["fluid", "--rtt-ms", "100", "--step-ms", "50"]) == 2
    assert "step" in capsys.readouterr().err


def test_cli_wifi_generate_and_replay(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    est = tmp_path / "est.csv"
    rc = main(["wifi-estimate", "--generate", "--duration-s", "2",
               "--load-mbps", "40", "--save-trace", str(trace), "--out", str(est)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "synthesized" in stdout
    assert trace.exists() and est.exists()

    rc = main(["wifi-estimate", "--trace", str(trace), "--per-user"])
    assert rc == 0
    assert "user 0:" in capsys.readouterr().out


def test_cli_wifi_errors(tmp_path, capsys):
    assert main(["wifi-estimate", "--trace", str(tmp_path / "missing.csv")]) == 2
    capsys.readouterr()
    # 500 Mbit/s offered against a ~52 Mbit/s link: the generator refuses.
    assert main(["wifi-estimate", "--generate", "--load-mbps", "500"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    # No acknowledgment fits in 1 ms; the average over none once raised
    # ZeroDivisionError.
    (["--duration-s", "0.001"], "no acknowledgment within 0.001 s"),
    # An infinite duration never returned; a NaN load raised UnboundLocalError.
    (["--duration-s", "inf"], "duration must be positive and finite, got inf"),
    (["--duration-s", "nan"], "duration must be positive and finite, got nan"),
    (["--load-mbps", "nan"], "offered load must be positive and finite, got nan"),
    (["--overhead-std-us", "nan"], "overhead mean, deviation and floor must be finite"),
])
def test_cli_wifi_generate_rejects_empty_or_endless_traces(args, message, capsys):
    # A traceback would escape main() and fail the test.
    assert main(["wifi-estimate", "--generate", *args]) == 2
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err
    assert "estimate" not in captured.out


def test_cli_wifi_per_user_reports_a_station_without_estimates(tmp_path, capsys):
    # Station 1 has one acknowledgment, which only starts its clock.
    trace = tmp_path / "trace.csv"
    trace.write_text("time_us,b,S_bits,R_bps,M,T_IA_us,user\n"
                     "1000,4,12000,24000000,8,1000.0,0\n"
                     "2000,4,12000,24000000,8,1000.0,1\n"
                     "3000,4,12000,24000000,8,1000.0,0\n"
                     "5000,4,12000,24000000,8,2000.0,0\n")
    out = tmp_path / "est.csv"
    assert main(["wifi-estimate", "--trace", str(trace), "--per-user", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("user 0: estimate 24.000 Mbit/s")
    assert lines[1] == "user 1: no estimate (fewer than two acknowledgments)"
    assert out.read_text().splitlines() == ["time_us,mu_hat_bps", "3000,24000000.0",
                                            "5000,24000000.0"]


@pytest.mark.parametrize("rate, gap, flags, message", [
    ("0", "3000.0", [], "PHY rate must be positive, got 0.0"),
    ("0", "3000.0", ["--per-user"], "PHY rate must be positive, got 0.0"),
    ("-24000000", "3000.0", [], "PHY rate must be positive, got -24000000.0"),
    ("nan", "3000.0", [], "PHY rate must be positive, got nan"),
    ("24000000", "nan", [], "inter-ACK time must be positive, got nan"),
])
def test_cli_wifi_rejects_malformed_trace_rows(tmp_path, capsys, rate, gap, flags, message):
    # Once a zero rate ended in a ZeroDivisionError traceback, and a NaN or
    # negative one printed a NaN or negative estimate.
    trace = tmp_path / "trace.csv"
    trace.write_text("time_us,b,S_bits,R_bps,M,T_IA_us\n"
                     "3000,4,12000,24000000,8,3000.0\n"
                     f"6000,4,12000,{rate},8,{gap}\n")
    assert main(["wifi-estimate", "--trace", str(trace), *flags]) == 2
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err
    assert "estimate" not in captured.out


@pytest.mark.parametrize("args, message", [
    (["--window-ms", "0"], "filter window must be positive"),
    (["--cap-factor", "-1"], "cap factor must be positive"),
    (["--cap-factor", "0", "--per-user"], "cap factor must be positive"),
])
def test_cli_wifi_rejects_bad_estimator_settings(args, message, capsys):
    assert main(["wifi-estimate", "--generate", "--duration-s", "1", *args]) == 2
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err
    assert "estimate" not in captured.out
