"""Command-line front end.

Four subcommands: ``run`` executes a YAML scenario (optionally sweeping
seeds across worker processes), ``validate`` just parses one, ``fluid``
integrates the aggregate queue-delay model and reports its fixed point,
and ``wifi-estimate`` runs the link-rate estimator over a recorded or
synthesized acknowledgment trace.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import os
import sys
from typing import TYPE_CHECKING

# Each handler imports what it uses, so ``fluid`` and ``wifi-estimate``
# load neither yaml nor the simulator.
if TYPE_CHECKING:
    from .engine import ScenarioConfig


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="accelbrake",
        description="Packet-level simulator for explicit window-control congestion signaling")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate a YAML scenario")
    run.add_argument("--config", required=True, help="scenario file")
    run.add_argument("--out", help="directory for summary and per-flow/per-hop CSVs")
    run.add_argument("--seed", type=int, help="override the scenario seed")
    run.add_argument("--seeds", help="comma-separated seed sweep, e.g. 1,2,3")
    run.add_argument("--duration", type=float, help="override duration (seconds)")
    run.add_argument("--jobs", type=int, default=0,
                     help="worker processes for a seed sweep (default: one per seed)")
    run.add_argument("--validate-only", action="store_true",
                     help="parse and validate the scenario, then exit")

    # ``validate`` is ``run --validate-only`` under its own name.
    val = sub.add_parser("validate", help="check a scenario file without running it")
    val.add_argument("--config", required=True)
    val.set_defaults(validate_only=True)

    fluid = sub.add_parser("fluid", help="integrate the aggregate queue-delay model")
    fluid.add_argument("--rate-mbps", type=float, default=12.0)
    fluid.add_argument("--rtt-ms", type=float, default=100.0)
    fluid.add_argument("--flows", type=int, default=1)
    fluid.add_argument("--eta", type=float, default=0.98)
    fluid.add_argument("--delta-ms", type=float, default=133.0)
    fluid.add_argument("--target-delay-ms", type=float, default=50.0)
    fluid.add_argument("--ai-interval-ms", type=float, default=100.0)
    fluid.add_argument("--horizon-s", type=float, default=20.0)
    fluid.add_argument("--step-ms", type=float, help="integration step (default rtt/100)")
    fluid.add_argument("--initial-delay-ms", type=float, default=0.0,
                       help="queueing delay held over the first round trip")
    fluid.add_argument("--out", help="write the trajectory as CSV (t_s,x_s)")

    wifi = sub.add_parser("wifi-estimate", help="estimate link rate from a block-ACK trace")
    src = wifi.add_mutually_exclusive_group(required=True)
    src.add_argument("--trace", help="CSV of acknowledgment events")
    src.add_argument("--generate", action="store_true",
                     help="synthesize a trace instead of reading one")
    wifi.add_argument("--window-ms", type=float, default=40.0)
    wifi.add_argument("--cap-factor", type=float, default=2.0)
    wifi.add_argument("--per-user", action="store_true",
                      help="estimate each station's share separately")
    wifi.add_argument("--out", help="write estimates as CSV (time_us,mu_hat_bps)")
    gen = wifi.add_argument_group("synthesis (--generate)")
    gen.add_argument("--phy-rate-mbps", type=float, default=72.0)
    gen.add_argument("--max-batch", type=int, default=16)
    gen.add_argument("--frame-bytes", type=int, default=1500)
    gen.add_argument("--overhead-us", type=float, default=1000.0)
    gen.add_argument("--overhead-std-us", type=float, default=200.0)
    gen.add_argument("--load-mbps", type=float, default=40.0)
    gen.add_argument("--duration-s", type=float, default=10.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--save-trace", help="also write the synthesized trace as CSV")
    return parser


def _write_failed(path: str, exc: OSError) -> int:
    print(f"error: cannot write {exc.filename or path}: {exc.strerror or exc}", file=sys.stderr)
    return 2


class _Stdout:
    """A command's stdout.  ``status`` is 0, or 1 once its reader has gone.

    A closed pipe ends no command: what is left to print is dropped, and
    the files the command was asked for are still written.
    """

    def __init__(self):
        self.status = 0

    def __call__(self, text: str) -> None:
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # As the Python docs advise for SIGPIPE: stdout goes to devnull,
            # so later lines and the flush at exit raise no second error.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            self.status = 1


def _make_out_dir(path: str) -> None:
    """Create the directory ``path`` and check that files can be made in it."""
    os.makedirs(path, exist_ok=True)
    if not os.access(path, os.W_OK | os.X_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)


# ---------------------------------------------------------------------------
# run / validate


def _describe(cfg: ScenarioConfig, path: str) -> str:
    topo = cfg.topology
    lines = [f"{path}: ok",
             f"  duration {cfg.duration_us / 1e6:g}s, seed {cfg.seed}"]
    for hop in topo.hops:
        lines.append(f"  hop {hop.hop_id}: {hop.kind}, buffer {hop.buffer_pkts} pkts")
    for flow in topo.flows:
        rtt = topo.path_rtt_us(flow) / 1000
        lines.append(f"  flow {flow.flow_id}: {flow.scheme}, base rtt {rtt:g}ms")
    if topo.shorts is not None:
        lines.append(f"  short flows: {topo.shorts.load_bps / 1e6:g} Mbit/s offered")
    return "\n".join(lines)


def _summarize(rep: dict, long_ids: list) -> str:
    from .metrics import jain_index
    # A figure the report leaves as None prints as "n/a", a long flow with no steady rate as 0.
    lines = [f"seed {rep['seed']}: {rep['delivered_packets']} delivered, "
             f"{rep['dropped_packets']} dropped"]
    for hop_id, hop in rep["hops"].items():
        util = "n/a" if hop["utilization"] is None else f"{hop['utilization']:.3f}"
        p95 = "n/a" if hop["delay_p95_us"] is None else f"{hop['delay_p95_us'] / 1000:.2f}ms"
        lines.append(f"  hop {hop_id}: utilization {util}, "
                     f"p95 queue delay {p95}, drops {hop['drops']}")
    rates = [rep["flows"].get(fid, 0.0) for fid in long_ids]
    lines += [f"  flow {fid}: {bps / 1e6:.3f} Mbit/s steady" for fid, bps in zip(long_ids, rates)]
    if len(rates) > 1 and all(v > 0 for v in rates):
        lines.append(f"  fairness across long flows: {jain_index(rates):.4f}")
    return "\n".join(lines)


def _run_one(cfg: ScenarioConfig, out_dir) -> str:
    from .engine import Simulation
    from .metrics import report, write_outputs
    sim = Simulation(cfg.topology, cfg.duration_us, seed=cfg.seed,
                     flow_sample_interval_us=cfg.sample_interval_us,
                     log_router_rows=cfg.log_router_rows,
                     receiver_coalesce=cfg.receiver_coalesce)
    log = sim.run()
    rep = report(log) if out_dir is None else write_outputs(log, out_dir)
    return _summarize(rep, [f.flow_id for f in cfg.topology.flows])


def _cmd_run(args) -> int:
    from .config import ConfigError, load_scenario
    try:
        cfg = load_scenario(args.config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = _Stdout()
    if args.validate_only:
        out(_describe(cfg, args.config))
        return out.status

    seeds = [cfg.seed if args.seed is None else args.seed]
    if args.seeds:
        try:
            seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
        except ValueError:
            print(f"error: --seeds must be integers, got {args.seeds!r}", file=sys.stderr)
            return 2
        if not seeds:
            print("error: --seeds is empty", file=sys.stderr)
            return 2
    # The overrides obey the same rules as the file's own values, and each
    # run gets the config checked here rather than reading the file again.
    try:
        if args.duration is not None:
            cfg.duration_us = int(round(args.duration * 1e6))
        runs = [dataclasses.replace(cfg, seed=seed) for seed in seeds]
        for run in runs:
            run.validate()
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def out_for(seed: int):
        if args.out is None:
            return None
        return args.out if len(seeds) == 1 else os.path.join(args.out, f"seed_{seed}")

    # An output directory that cannot be written fails here, before any run.
    if args.out is not None:
        try:
            for run in runs:
                _make_out_dir(out_for(run.seed))
        except OSError as exc:
            return _write_failed(args.out, exc)
    if len(runs) == 1:
        try:
            summary = _run_one(runs[0], out_for(runs[0].seed))
        except OSError as exc:
            return _write_failed(args.out, exc)
        out(summary)
        return out.status
    from concurrent.futures import ProcessPoolExecutor
    # A fork pool starts all max_workers processes at the first submit.
    jobs = min(len(runs), args.jobs if args.jobs > 0 else os.cpu_count() or 1)
    status = 0
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(_run_one, run, out_for(run.seed)) for run in runs]
        # Every run finishes and writes its directory, read or not.
        for fut in futures:
            try:
                summary = fut.result()
            except OSError as exc:
                status = _write_failed(args.out, exc)
                continue
            out(summary)
    return max(status, out.status)


# ---------------------------------------------------------------------------
# fluid


def _cmd_fluid(args) -> int:
    from .fluid import (FluidParams, fixed_point_delay, fixed_point_rate, integrate,
                        settling_time)
    try:
        params = FluidParams(eta=args.eta, delta_s=args.delta_ms / 1000,
                             target_delay_s=args.target_delay_ms / 1000,
                             n_flows=args.flows, mu_bps=args.rate_mbps * 1e6,
                             tau_s=args.rtt_ms / 1000,
                             ai_interval_s=args.ai_interval_ms / 1000)
        step = None if args.step_ms is None else args.step_ms / 1000
        t, x = integrate(params, args.initial_delay_ms / 1000, args.horizon_s, step)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = _Stdout()
    x_star = fixed_point_delay(params)
    ratio = params.delta_s / params.tau_s
    out(f"drift {params.drift:+.4f} pkts/rtt per rtt, "
        f"delta/tau {ratio:.3f} ({'stable' if params.stable else 'not provably stable'})")
    out(f"fixed point: queue delay {x_star * 1000:.3f}ms, "
        f"rate {fixed_point_rate(params) / 1e6:.3f} Mbit/s")
    t_settle = settling_time(t, x, x_star)
    if t_settle is not None and t_settle < args.horizon_s:
        out(f"settles within 1% at t={t_settle:.3f}s")
    else:
        out(f"does not settle within the {args.horizon_s:g}s horizon "
            f"(final delay {x[-1] * 1000:.3f}ms)")
    if args.out:
        import csv
        try:
            with open(args.out, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["t_s", "queue_delay_s"])
                w.writerows(zip(map(float, t), map(float, x)))
        except OSError as exc:
            return _write_failed(args.out, exc)
        out(f"trajectory written to {args.out} ({len(t)} points)")
    return out.status


# ---------------------------------------------------------------------------
# wifi


def _cmd_wifi(args) -> int:
    from . import wifi
    out = _Stdout()
    if args.generate:
        try:
            profile = wifi.LinkProfile(
                phy_rate_bps=args.phy_rate_mbps * 1e6,
                max_batch=args.max_batch,
                frame_bits=args.frame_bytes * 8,
                overhead=wifi.OverheadModel(args.overhead_us, args.overhead_std_us,
                                            min(200.0, args.overhead_us / 2)))
            events = wifi.generate_mac_trace(profile, args.load_mbps * 1e6,
                                             args.duration_s, seed=args.seed)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if not events:
            print(f"error: no acknowledgment within {args.duration_s:g} s; "
                  "lengthen --duration-s", file=sys.stderr)
            return 2
        truth = profile.true_capacity()
        out(f"synthesized {len(events)} acknowledgments, "
            f"true backlogged rate {truth / 1e6:.3f} Mbit/s")
        if args.save_trace:
            try:
                wifi.write_mac_trace(events, args.save_trace)
            except OSError as exc:
                return _write_failed(args.save_trace, exc)
            out(f"trace written to {args.save_trace}")
    else:
        try:
            events = wifi.read_mac_trace(args.trace)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if not events:
            print(f"error: {args.trace}: no events", file=sys.stderr)
            return 2

    def print_estimate(points, label=""):
        if not points:
            # Per user, a station's first acknowledgment only starts its clock.
            out(f"{label}no estimate (fewer than two acknowledgments)")
            return
        tail = points[len(points) // 3:] or points
        mean = sum(p.capped_bps for p in tail) / len(tail)
        capped = sum(1 for p in tail if p.capped_bps < p.raw_bps) / len(tail)
        out(f"{label}estimate {mean / 1e6:.3f} Mbit/s over the last two thirds "
            f"({capped:.0%} of samples limited by the current-rate cap)")

    try:
        window_us = int(round(args.window_ms * 1000))
        if args.per_user:
            per = wifi.estimate_capacity_per_user(events, window_us, args.cap_factor)
        else:
            points = wifi.estimate_capacity(events, window_us, args.cap_factor)
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.per_user:
        for user, points in per.items():
            print_estimate(points, label=f"user {user}: ")
        points = sorted((p for pts in per.values() for p in pts), key=lambda p: p.time_us)
    else:
        print_estimate(points)
    if args.out:
        try:
            wifi.write_estimates(points, args.out)
        except OSError as exc:
            return _write_failed(args.out, exc)
        out(f"estimates written to {args.out}")
    return out.status


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {"run": _cmd_run, "validate": _cmd_run,
               "fluid": _cmd_fluid, "wifi-estimate": _cmd_wifi}[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
