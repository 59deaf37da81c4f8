"""Python calls per delivered packet: a guard on the per-packet path that host noise cannot move.

Each role handles a packet in one frame (see the ``engine``, ``router``,
``sender`` and ``receiver`` module docstrings), so the calls a delivered
packet costs are the event handlers and the calls between parts.  A
profile hook counts every call into a Python frame whose code lives in
the ``accelbrake`` package while ``run()`` goes through 2 simulated
seconds.  The count is fixed by the scenario and the code, not by the
machine, so the bound needs no margin for a busy host.

Only the package's own frames count: the dataclasses' ``__init__``
methods are compiled from strings, and standard-library frames differ
between Python versions, so leaving both out gives the same count on
Python 3.10 and 3.11.  (From 3.12 on, comprehensions run in their
caller's frame, so the count can only fall there.)  With each helper in
its own frame the counts were 31.27 on single_trace and 44.99 on
serial_bottlenecks; now they are 20.37 and 30.95.
"""

import os
import sys
from pathlib import Path

import pytest

import accelbrake
from accelbrake.config import load_scenario
from accelbrake.engine import Simulation

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
PACKAGE_DIR = str(Path(accelbrake.__file__).resolve().parent)
CALLS_PER_DELIVERY_2S = {"single_trace": 20.37, "serial_bottlenecks": 30.96}


@pytest.mark.parametrize("name", sorted(CALLS_PER_DELIVERY_2S))
def test_calls_per_delivery(name):
    cfg = load_scenario(str(SCENARIO_DIR / f"{name}.yaml"))
    sim = Simulation(cfg.topology, 2_000_000, seed=cfg.seed,
                     flow_sample_interval_us=cfg.sample_interval_us,
                     log_router_rows=cfg.log_router_rows,
                     receiver_coalesce=cfg.receiver_coalesce)
    calls = 0
    in_package = {}  # code object -> whether its file is in the package

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            code = frame.f_code
            inside = in_package.get(code)
            if inside is None:
                inside = in_package[code] = str(
                    Path(code.co_filename).resolve()).startswith(PACKAGE_DIR + os.sep)
            calls += inside

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        log = sim.run()
    finally:
        sys.setprofile(previous)
    delivered = len(log.seqs)
    assert delivered > 1_000
    assert calls / delivered <= CALLS_PER_DELIVERY_2S[name]
