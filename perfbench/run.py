"""accelbrake benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each measured pass is a fresh,
single-threaded ``perfbench/worker.py`` process; passes repeat until the
next one would overrun ``--seconds``.  Host-time metrics (process CPU
time, see worker.py) are medians over the passes, simulated outcomes come from the first pass (every pass
must produce the same timeline digest).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics: span
aggregates from the traced passes, plus the tracing overhead and the
memory growth from the untraced ones.

Correctness checks (any failure makes ``correct`` false):
  * per pass: packet conservation, zero window-cap violations, backlog
    within every buffer, utilization at most 1 (companion: a finite,
    settling fluid trajectory and well-formed Wi-Fi estimates);
  * every pass of the run gives the same digest;
  * the digest equals the golden digest in golden.json: one digest for a
    workload the seed does not change, else the one for this seed (seeds
    0-49 are recorded; for others the text output says the check was not
    run);
  * traced passes give the untraced digest, their outermost spans cover
    the worker's own timing of the run phase, and the engine's self time
    is non-negative.

The last stdout line is the JSON result; the lines before it give the
provenance and repeat the metrics and checks for a reader.  record.py
keeps full results, with provenance, under perfbench/baseline.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from workloads import END_TO_END, LAYERS, TRACED_CALLS, WORKLOADS, per_layer_units  # noqa: E402

WORKER_TIMEOUT_S = 150
# Seeds with a recorded golden digest, for the workloads that --seed changes.
GOLDEN_SEEDS = range(50)
# Outermost spans of a traced pass.
TOP_SPANS = ("engine.run", "fluid.integrate", "wifi.generate", "wifi.estimate")
# Share of run() the outermost spans may miss: installing and removing the
# wrappers, which takes microseconds.
RUN_COVER_SLACK = 0.01
# Every pass is single-threaded (no BLAS threads) with a fixed hash seed.
WORKER_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def git_commit(root: Path) -> str:
    """HEAD of the checkout, or 'unknown' outside a git work tree."""
    # The ceiling keeps git from reporting a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(wl, seed: int) -> dict:
    inputs = {}
    if wl.scenario is not None:
        import yaml
        scenario = ROOT / wl.scenario
        inputs[wl.scenario] = _sha256(scenario)
        link_files = [h["link"]["file"] for h in yaml.safe_load(scenario.read_text())["hops"]
                      if h["link"].get("type") == "trace"]
        for rel in link_files:
            path = (scenario.parent / rel).resolve()
            inputs[str(path.relative_to(ROOT))] = _sha256(path)
    return {
        "git_commit": git_commit(ROOT),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "workload": wl.name,
        "simulated_horizon_s": wl.horizon_s,
        "input_sha256": inputs,
    }


def run_pass(name: str, seed: int, trace: int) -> dict:
    env = dict(os.environ, **WORKER_ENV)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(seed), "--trace", str(trace)]
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(cmd[2:])} exited with {proc.returncode}:\n"
                           f"{proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.perf_counter() - started
    result["trace"] = trace
    return result


def run_passes(name: str, seed: int, seconds: float, trace: bool) -> list:
    """Passes until the next would end after ``seconds``; at least one of each kind."""
    kinds = (0, 1) if trace else (0,)
    passes: list = []
    start = time.perf_counter()
    while True:
        for kind in kinds:
            done = [p["elapsed_s"] for p in passes if p["trace"] == kind]
            elapsed = time.perf_counter() - start
            if done and elapsed + max(done) > seconds:
                return passes
            passes.append(run_pass(name, seed, kind))


def _median(passes: list, key: str) -> float:
    return statistics.median(p[key] for p in passes)


def end_to_end(passes: list) -> dict:
    first = passes[0]
    values = {
        "setup_s": _median(passes, "setup_s"),
        "total_s": _median(passes, "total_s"),
        "pkts_per_s": _median(passes, "pkts_per_s"),
        "peak_rss_mb": _median(passes, "peak_rss_bytes") / 2**20,
        "sim_utilization": first["sim_utilization"],
        "sim_qdelay_p95": first["sim_qdelay_p95"],
        "sim_jain": first["sim_jain"],
    }
    return {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}


def _layer_values(p: dict) -> dict:
    """Per-layer metrics of one traced pass."""
    spans = p["spans"]

    def span(name):
        return spans.get(name, {"calls": 0, "total_ns": 0, "self_ns": 0,
                                "p50_ns": 0, "p99_ns": 0, "counts": {}})

    def count(name, key):
        return span(name)["counts"].get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    v = {}
    for call in TRACED_CALLS:
        s = span(call)
        v[f"{call}.calls"] = s["calls"]
        v[f"{call}.self_s"] = s["self_ns"] / 1e9
        v[f"{call}.p50_ns"] = s["p50_ns"]
        v[f"{call}.p99_ns"] = s["p99_ns"]
    for layer in LAYERS:
        v[f"{layer}.self_s"] = sum(s["self_ns"] for n, s in spans.items()
                                   if n.split(".")[0] == layer) / 1e9
    delivered = p["delivered"]
    dequeues = span("router.on_dequeue")["calls"]
    marked = count("router.on_dequeue", "marked")
    v.update({
        "engine.run_s": span("engine.run")["total_ns"] / 1e9,
        "engine.delivered_pkts": delivered,
        "engine.self_ns_per_pkt": ratio(span("engine.run")["self_ns"], delivered),
        "router.marked_dequeues": marked,
        "router.drop_ratio": ratio(count("router.enqueue", "drops"),
                                   span("router.enqueue")["calls"]),
        "router.accel_ratio": ratio(count("router.on_dequeue", "accel"), marked),
        "links.next_delivery_per_dequeue": ratio(span("links.next_delivery")["calls"],
                                                 dequeues),
        "sender.transmit.calls": span("sender.transmit")["calls"],
        "sender.timeouts": span("sender.on_timeout")["calls"],
        "sender.pkts_per_ack": ratio(count("sender.on_ack", "pkts"),
                                     span("sender.on_ack")["calls"]),
        "receiver.acks_per_pkt": ratio(count("receiver.on_packet", "acks")
                                       + count("receiver.flush", "acks"),
                                       span("receiver.on_packet")["calls"]),
        "legacy.calls": sum(span(f"legacy.{c}")["calls"]
                            for c in ("on_ack", "on_congestion", "on_timeout")),
        "legacy.congestion_reactions": count("legacy.on_congestion", "reactions"),
        "metrics.report_s": p["report_s"],
        "config.load_s": p["config_load_s"],
        "fluid.integrate.steps": p.get("fluid_steps", 0),
        "fluid.integrate.ns_per_step": ratio(span("fluid.integrate")["total_ns"],
                                             p.get("fluid_steps", 0)),
        "wifi.events": p.get("wifi_events", 0),
        "wifi.generate.ns_per_event": ratio(span("wifi.generate")["total_ns"],
                                            p.get("wifi_events", 0)),
        "wifi.estimate.ns_per_event": ratio(span("wifi.estimate")["total_ns"],
                                            p.get("wifi_events", 0)),
    })
    return v


def _top_ns(spans: dict) -> int:
    """Inclusive time of the outermost spans: run(), or companion's three calls."""
    return sum(spans[name]["total_ns"] for name in TOP_SPANS if name in spans)


def per_layer(untraced: list, traced: list) -> dict:
    per_pass = [_layer_values(p) for p in traced]
    values = {k: statistics.median(v[k] for v in per_pass) for k in per_pass[0]}
    run_untraced = _median(untraced, "run_s")
    values["trace.overhead_ratio"] = _median(traced, "run_s") / run_untraced
    # What the calibrated correction took out of the self times.
    wrapper_s = [(_top_ns(p["spans"]) - sum(s["self_ns"] for s in p["spans"].values())) / 1e9
                 for p in traced]
    values["trace.wrapper_s"] = statistics.median(wrapper_s)
    values["trace.corrected_overhead_ratio"] = statistics.median(
        p["run_s"] - w for p, w in zip(traced, wrapper_s)) / run_untraced
    values["metrics.rss_bytes_per_pkt"] = (
        _median(untraced, "run_rss_growth_bytes") / untraced[0]["delivered"]
        if untraced[0]["delivered"] else 0.0)
    units = per_layer_units()
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def checks(wl, seed: int, passes: list) -> tuple:
    """(checks, notes): every check run, and lines to print about checks not run."""
    out, notes = [], []
    for i, p in enumerate(passes):
        kind = "traced" if p["trace"] else "untraced"
        out += [dict(c, name=f"pass{i}.{kind}.{c['name']}") for c in p["checks"]]
    digests = {p["digest"] for p in passes}
    reference = passes[0]["digest"]
    out.append({"name": "same_digest_every_pass", "ok": len(digests) == 1,
                "detail": ", ".join(sorted(digests))})
    golden = json.loads((HERE / "golden.json").read_text())[wl.name]
    if wl.seeded:
        golden = golden.get(str(seed))
    if golden is None:
        notes.append(f"no golden digest for seed {seed}; recorded seeds: "
                     f"{min(GOLDEN_SEEDS)}-{max(GOLDEN_SEEDS)}")
    else:
        out.append({"name": "golden_digest", "ok": golden == reference,
                    "detail": f"{reference} vs golden {golden}"})
    for i, p in enumerate(passes):
        if not p["trace"]:
            continue
        out.append({"name": f"pass{i}.traced_digest_matches_untraced",
                    "ok": p["digest"] == next(q["digest"] for q in passes if not q["trace"]),
                    "detail": p["digest"]})
        # The outermost spans, timed by the wrappers, must cover the worker's
        # own perf_counter timing of the run phase, less the install and
        # uninstall of the wrappers.
        top_s, run_s = _top_ns(p["spans"]) / 1e9, p["run_s"]
        out.append({"name": f"pass{i}.top_spans_cover_run",
                    "ok": run_s * (1 - RUN_COVER_SLACK) <= top_s <= run_s,
                    "detail": f"{top_s:.6f} s in spans vs run {run_s:.6f} s"})
        if wl.scenario is not None:
            run = p["spans"]["engine.run"]
            out.append({"name": f"pass{i}.engine_self_time_nonnegative",
                        "ok": run["self_ns"] >= 0, "detail": f"{run['self_ns']} ns"})
    return out, notes


def measure(wl, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; the full result, with provenance and every pass."""
    passes = run_passes(wl.name, seed, seconds, trace)
    untraced = [p for p in passes if not p["trace"]]
    traced = [p for p in passes if p["trace"]]
    results, notes = checks(wl, seed, passes)
    n_failed = sum(not c["ok"] for c in results)
    failed_passes = sum(any(not c["ok"] for c in p["checks"]) for p in passes)
    if n_failed and not failed_passes:
        failed_passes = len(passes)  # a cross-pass check failed: no pass is trusted
    return {"provenance": provenance(wl, seed),
            "metrics": per_layer(untraced, traced) if trace else end_to_end(untraced),
            "checks": results, "notes": notes,
            "correct": n_failed == 0, "attempted": len(passes), "failed": failed_passes,
            "passes": passes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="accelbrake benchmark", formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload]
    missing = [p for p in ("src/accelbrake/__init__.py", wl.scenario)
               if p is not None and not (ROOT / p).is_file()]
    if missing:
        print(f"error: {ROOT} is not an accelbrake source checkout; missing "
              f"{', '.join(missing)}", file=sys.stderr)
        return 2

    try:
        result = measure(wl, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    passes, results = result["passes"], result["checks"]
    print(f"provenance {json.dumps(result['provenance'])}")
    print(f"{wl.name}: {sum(not p['trace'] for p in passes)} untraced and "
          f"{sum(p['trace'] for p in passes)} traced passes")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  failed_checks = {sum(not c['ok'] for c in results)}/{len(results)}")
    for c in results:
        if not c["ok"]:
            print(f"  FAILED {c['name']}: {c['detail']}")
    for note in result["notes"]:
        print(f"  note: {note}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
