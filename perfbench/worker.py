"""One measured pass of one workload, run in a fresh process by run.py.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1

The pass drives the library through its public API only: setup
(import, scenario load, Simulation construction), ``run()``, and the
report a user of ``accelbrake run --out`` gets (utilization, p95 queuing
delay, steady-window throughputs, Jain's index, ``write_outputs``).  It
then computes the inputs of the correctness checks (invariants and a
digest of the packet timeline) outside the timed region.

Setup, total and packets-per-second times are process CPU time: the pass
is single-threaded, so on an idle machine that is its wall time, and it
leaves out time a shared machine gives to other tenants.  The run and
report phases are also timed on the wall clock (perf_counter), the clock
the tracer's spans use.

With ``--trace 1`` the run phase goes through tracer.Tracer, calibrated
(tracer.calibrate) and given its entry points before setup, so a traced
pass's setup time is not comparable with an untraced one's.  Outputs go
to a temporary directory under perfbench/tmp, inside the checkout, and
are removed at the end.

The last stdout line is one JSON object with the pass's measurements.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

from tracer import Tracer, calibrate, entry_points  # noqa: E402
from workloads import (FLUID, WIFI_CAP_FACTOR, WIFI_LOAD_BPS,  # noqa: E402
                       WIFI_PHY_BPS, WIFI_WINDOW_US, WORKLOADS)

UTILIZATION_EPS = 1e-9


def _maxrss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _import_package():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import accelbrake
    if not Path(accelbrake.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported accelbrake from {accelbrake.__file__}, not {SRC}")
    return accelbrake


def _check(checks: list, name: str, ok: bool, detail: str = "") -> None:
    checks.append({"name": name, "ok": bool(ok), "detail": detail})


def timeline_digest(log) -> str:
    """sha256 over (flow, seq, deliver time, hop stamps) and every drop."""
    h = hashlib.sha256()
    for r in log.deliveries:
        hops = ";".join(f"{hop},{enq},{deq}" for hop, enq, deq in r.hops)
        h.update(f"{r.flow_id},{r.seq},{r.deliver_time},{hops}\n".encode())
    for d in log.drops:
        h.update(f"drop,{d.flow_id},{d.seq},{d.hop_id},{d.time}\n".encode())
    return h.hexdigest()


def simulate(wl, seed: int, tracer, tmp: str) -> dict:
    c0 = time.process_time()
    _import_package()
    from accelbrake.config import load_scenario
    from accelbrake.engine import Simulation
    from accelbrake.metrics import (delay_percentile, flow_throughputs, jain_index,
                                    steady_window, utilization, write_outputs)
    t_load = time.perf_counter()
    cfg = load_scenario(str(ROOT / wl.scenario))
    t_loaded = time.perf_counter()
    sim = Simulation(cfg.topology, int(wl.horizon_s * 1e6), seed=seed,
                     flow_sample_interval_us=cfg.sample_interval_us,
                     log_router_rows=cfg.log_router_rows,
                     receiver_coalesce=cfg.receiver_coalesce)
    c_setup, t_setup = time.process_time(), time.perf_counter()
    rss_before = _maxrss_bytes()

    if tracer is not None:
        tracer.install()
    try:
        log = sim.run()
    finally:
        if tracer is not None:
            tracer.uninstall()
    c_run, t_run = time.process_time(), time.perf_counter()
    rss_run = _maxrss_bytes()

    hop_report = {}
    for hop_id in log.hop_stats:
        hop_report[hop_id] = (utilization(log, hop_id),
                              delay_percentile(log, hop_id, 0.95))
    start, end = steady_window(log)
    long_ids = [f.flow_id for f in cfg.topology.flows]
    rates = flow_throughputs(log, start, end, long_ids)
    jain = jain_index([rates[f] for f in long_ids])
    write_outputs(log, tmp)
    c_report, t_report = time.process_time(), time.perf_counter()
    peak_rss = _maxrss_bytes()

    delivered = len(log.deliveries)
    checks: list = []
    census = sim.census()
    _check(checks, "conservation",
           census["sent"] == census["delivered"] + census["dropped"]
           + census["queued"] + census["in_flight"], json.dumps(census))
    violations = {fid: rt.sender.cap_violations for fid, rt in sim.flows.items()
                  if rt.sender.cap_violations}
    _check(checks, "cap_violations_zero", not violations, json.dumps(violations))
    for router, hop in zip(sim.routers, cfg.topology.hops):
        backlog = router.backlog()
        _check(checks, f"backlog_within_buffer.{hop.hop_id}",
               backlog <= hop.buffer_pkts, f"{backlog} <= {hop.buffer_pkts}")
    for hop_id, (util, _) in hop_report.items():
        _check(checks, f"utilization_at_most_1.{hop_id}",
               util <= 1 + UTILIZATION_EPS, f"{util!r}")
    _check(checks, "delivered_packets", delivered > 0, str(delivered))

    util, p95_us = hop_report[wl.hop]
    return {
        "setup_s": c_setup - c0,
        "total_s": c_report - c0,
        "pkts_per_s": delivered / (c_run - c_setup),
        "config_load_s": t_loaded - t_load,
        "run_s": t_run - t_setup,
        "report_s": t_report - t_run,
        "delivered": delivered,
        "peak_rss_bytes": peak_rss,
        "run_rss_growth_bytes": rss_run - rss_before,
        "sim_utilization": util,
        "sim_qdelay_p95": p95_us / 1000,
        "sim_jain": jain,
        "checks": checks,
        "digest": timeline_digest(log),
    }


def companion(wl, seed: int, tracer, tmp: str) -> dict:
    c0 = time.process_time()
    _import_package()
    from accelbrake import fluid, wifi
    from accelbrake.core import MTU_BITS
    from accelbrake.metrics import jain_index
    params = fluid.FluidParams(**FLUID)
    params.validate()
    profile = wifi.LinkProfile(phy_rate_bps=WIFI_PHY_BPS)
    c_setup, t_setup = time.process_time(), time.perf_counter()
    rss_before = _maxrss_bytes()

    if tracer is not None:
        tracer.install()
    try:
        t, x = fluid.integrate(params, 0.0, wl.horizon_s)
        events = wifi.generate_mac_trace(profile, WIFI_LOAD_BPS, wl.horizon_s, seed=seed)
        points = wifi.estimate_capacity(events, WIFI_WINDOW_US, WIFI_CAP_FACTOR)
    finally:
        if tracer is not None:
            tracer.uninstall()
    c_run, t_run = time.process_time(), time.perf_counter()
    rss_run = _maxrss_bytes()

    x_star = fluid.fixed_point_delay(params)
    rate = fluid.fixed_point_rate(params)
    settle = fluid.settling_time(t, x, x_star)
    tail = points[len(points) // 3:] or points
    estimate_bps = sum(p.capped_bps for p in tail) / len(tail)
    with open(Path(tmp) / "trajectory.csv", "w") as fh:
        fh.write("t_s,queue_delay_s\n")
        fh.writelines(f"{ti!r},{xi!r}\n" for ti, xi in zip(map(float, t), map(float, x)))
    wifi.write_estimates(points, str(Path(tmp) / "estimates.csv"))
    c_report, t_report = time.process_time(), time.perf_counter()
    peak_rss = _maxrss_bytes()

    frames = sum(ev.batch_frames for ev in events)
    fluid_pkts = rate * wl.horizon_s / MTU_BITS
    delays = sorted(float(v) for v in x)
    p95_s = delays[math.ceil(0.95 * len(delays)) - 1]
    wifi_util = frames * profile.frame_bits / (wl.horizon_s * profile.true_capacity())

    checks: list = []
    _check(checks, "fluid_trajectory_valid",
           len(x) == len(t) and all(math.isfinite(v) and v >= 0 for v in delays),
           f"{len(x)} points")
    _check(checks, "fluid_settles", settle is not None and settle < wl.horizon_s,
           f"settling time {settle}")
    _check(checks, "wifi_events", len(events) > 0 and len(points) == len(events),
           f"{len(events)} events, {len(points)} estimates")
    _check(checks, "wifi_estimates_valid",
           all(0 < p.capped_bps <= p.raw_bps + 1e-6
               and p.capped_bps <= WIFI_CAP_FACTOR * p.current_bps + 1e-6
               for p in points), f"mean estimate {estimate_bps / 1e6:.3f} Mbit/s")

    h = hashlib.sha256()
    h.update(t.tobytes())
    h.update(x.tobytes())
    for ev in events:
        h.update(f"{ev.time_us},{ev.batch_frames},{ev.inter_ack_us!r}\n".encode())
    for p in points:
        h.update(f"{p.time_us},{p.raw_bps!r},{p.current_bps!r},{p.capped_bps!r}\n".encode())

    return {
        "setup_s": c_setup - c0,
        "total_s": c_report - c0,
        "pkts_per_s": (fluid_pkts + frames) / (c_run - c_setup),
        "config_load_s": 0.0,
        "run_s": t_run - t_setup,
        "report_s": t_report - t_run,
        "delivered": 0,
        "peak_rss_bytes": peak_rss,
        "run_rss_growth_bytes": rss_run - rss_before,
        "sim_utilization": wifi_util,
        "sim_qdelay_p95": p95_s * 1000,
        "sim_jain": jain_index([rate / params.n_flows] * params.n_flows),
        "fluid_steps": len(t) - 1,
        "wifi_events": len(events),
        "checks": checks,
        "digest": h.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        # entry_points imports every module the tracer wraps; that must not
        # land in the timed run.
        _import_package()
        tracer = Tracer(entry_points(), calibrate())
    scratch = ROOT / "perfbench" / "tmp"
    scratch.mkdir(exist_ok=True)
    run = companion if wl.scenario is None else simulate
    with tempfile.TemporaryDirectory(prefix=f"{wl.name}-", dir=scratch) as tmp:
        result = run(wl, args.seed, tracer, tmp)
    if tracer is not None:
        result["spans"] = tracer.summary()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
