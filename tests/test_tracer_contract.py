"""The benchmark's tracer (perfbench/tracer.py) must keep working on the library.

The tracer wraps each entry point through ``owner.__dict__[attr]`` after a
``Simulation`` is built, so every entry point must stay defined on the class
or module it names, and the engine must reach it by attribute lookup when an
event runs.  A traced run must also simulate exactly what an untraced run
does.  The tracer module is loaded from its file and left unmodified.
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from accelbrake.config import load_scenario
from accelbrake.engine import Simulation

ROOT = Path(__file__).resolve().parent.parent
TRACER_PATH = ROOT / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_entry_points_are_defined_on_their_owners(tracer_module):
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in tracer_module.entry_points()
               if attr not in vars(owner)]
    assert not missing


def _digest(log):
    h = hashlib.sha256()
    for r in log.deliveries:
        hops = ";".join(f"{hop},{enq},{deq}" for hop, enq, deq in r.hops)
        h.update(f"{r.flow_id},{r.seq},{r.deliver_time},{hops}\n".encode())
    for d in log.drops:
        h.update(f"drop,{d.flow_id},{d.seq},{d.hop_id},{d.time}\n".encode())
    return h.hexdigest()


def _run(tracer=None):
    cfg = load_scenario(str(ROOT / "scenarios" / "serial_bottlenecks.yaml"))
    sim = Simulation(cfg.topology, 2_000_000, seed=cfg.seed,
                     flow_sample_interval_us=cfg.sample_interval_us,
                     log_router_rows=cfg.log_router_rows,
                     receiver_coalesce=cfg.receiver_coalesce)
    if tracer is not None:
        tracer.install()
    try:
        return sim.run()
    finally:
        if tracer is not None:
            tracer.uninstall()


def test_traced_run_matches_untraced(tracer_module):
    tracer = tracer_module.Tracer(tracer_module.entry_points())
    traced = _run(tracer)
    assert _digest(traced) == _digest(_run())
    calls = {name: s["calls"] for name, s in tracer.summary().items()}
    for name in ("engine.run", "router.enqueue", "router.on_dequeue", "topk.record",
                 "links.next_delivery", "links.capacity", "sender.on_ack",
                 "sender.transmit", "receiver.on_packet", "metrics.record"):
        assert calls[name] > 0, name
