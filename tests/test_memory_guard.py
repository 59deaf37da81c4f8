"""The run log must not grow by a per-packet object.

Memory traced across ``run()``, divided by the packets delivered, covers
the delivery log plus whatever else a run keeps (short flows' state, the
heap, queued packets).  With the column-oriented log it measures about
120 B per delivery on both scenarios below; a log of one record and one
tuple per hop per delivery measured 380-500 B.
"""

import tracemalloc
from pathlib import Path

import pytest

from accelbrake.config import load_scenario
from accelbrake.engine import Simulation

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
MAX_BYTES_PER_DELIVERY = 200


@pytest.mark.parametrize("name", ["serial_bottlenecks", "coexist_shorts"])
def test_run_memory_per_delivery(name):
    cfg = load_scenario(str(SCENARIO_DIR / f"{name}.yaml"))
    sim = Simulation(cfg.topology, 2_000_000, seed=cfg.seed,
                     flow_sample_interval_us=cfg.sample_interval_us,
                     log_router_rows=cfg.log_router_rows,
                     receiver_coalesce=cfg.receiver_coalesce)
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
