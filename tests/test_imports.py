"""What ``import accelbrake`` loads, and the names it exports.

The package namespace is lazy: a public name's defining submodule is
imported the first time the name is read.  The fluid model and the Wi-Fi
estimator then run without loading yaml or the packet simulator.  Each
import-set check runs in a fresh interpreter, so the modules an earlier
test loaded do not count; which modules a line loads is fixed by the
code, not by the machine.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import accelbrake

SRC = str(Path(accelbrake.__file__).resolve().parent.parent)

SIMULATOR = ["accelbrake.engine", "accelbrake.links", "accelbrake.router",
             "accelbrake.sender", "accelbrake.legacy", "accelbrake.receiver",
             "accelbrake.topk"]
NOT_FOR_COMPANION = ["yaml", "accelbrake.config", "accelbrake.cli"] + SIMULATOR

# Every public name, in ``__all__`` order, with the submodule that defines it.
EXPORTS = [
    ("Ack", "core"), ("EcnCodepoint", "core"), ("Packet", "core"), ("MTU_BYTES", "core"),
    ("FlowSpec", "engine"), ("HopSpec", "engine"), ("ShortFlowLoad", "engine"),
    ("Simulation", "engine"), ("Topology", "engine"),
    ("FixedLink", "links"), ("OracleRateView", "links"), ("StepLink", "links"),
    ("TraceLink", "links"), ("load_trace_file", "links"),
    ("MetricsLog", "metrics"), ("jain_index", "metrics"),
    ("AbcParams", "router"), ("AbcRouter", "router"), ("accel_fraction", "router"),
    ("target_rate", "router"),
    ("AbcSender", "sender"), ("CubicSender", "sender"), ("lost_ack_drift", "sender"),
    ("steady_state_window", "sender"),
]


def _loaded_after(code: str) -> set:
    """The ``accelbrake``, yaml and concurrent.futures modules loaded once ``code`` has run."""
    script = (code + "\nimport json, sys\n"
              "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in "
              "('accelbrake', 'yaml') or m == 'concurrent.futures')))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _cli(argv: list) -> str:
    # The command's own output is discarded; its exit code must be 0.
    return ("import contextlib, io\n"
            "from accelbrake import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main({argv!r}) == 0\n")


def test_companion_imports_leave_out_the_simulator():
    loaded = _loaded_after("import accelbrake\n"
                           "from accelbrake import fluid, wifi\n"
                           "from accelbrake.metrics import jain_index\n")
    assert {"accelbrake.core", "accelbrake.fluid", "accelbrake.wifi",
            "accelbrake.metrics"} <= loaded
    assert sorted(loaded & set(NOT_FOR_COMPANION)) == []


@pytest.mark.parametrize("argv, module", [
    (["fluid", "--horizon-s", "0.5"], "accelbrake.fluid"),
    (["wifi-estimate", "--generate", "--duration-s", "0.2"], "accelbrake.wifi"),
])
def test_companion_commands_leave_out_the_simulator(argv, module):
    loaded = _loaded_after(_cli(argv))
    assert module in loaded
    not_loaded = set(NOT_FOR_COMPANION) - {"accelbrake.cli"} | {"concurrent.futures"}
    assert sorted(loaded & not_loaded) == []


def test_a_public_name_loads_its_module():
    loaded = _loaded_after("from accelbrake import Simulation\n")
    assert set(SIMULATOR) <= loaded
    assert "accelbrake.config" not in loaded and "yaml" not in loaded


def test_all_keeps_its_names_and_order():
    assert accelbrake.__all__ == [name for name, _ in EXPORTS]


@pytest.mark.parametrize("name, module", EXPORTS)
def test_name_is_the_defining_modules_object(name, module):
    defining = importlib.import_module(f"accelbrake.{module}")
    assert getattr(accelbrake, name) is getattr(defining, name)


def test_dir_lists_every_name():
    listed = dir(accelbrake)
    assert set(accelbrake.__all__) <= set(listed)
    assert "__version__" in listed


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        getattr(accelbrake, "nope")
    assert not hasattr(accelbrake, "nope")


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from accelbrake import *", namespace)
    for name, module in EXPORTS:
        assert namespace[name] is getattr(importlib.import_module(f"accelbrake.{module}"), name)
