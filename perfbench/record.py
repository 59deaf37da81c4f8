"""Record the benchmark's reference data, for every workload.

    python3 perfbench/record.py golden
    python3 perfbench/record.py sweep [--out-dir perfbench/baseline]

``golden`` runs one untraced pass per workload and stores its timeline
digest in perfbench/golden.json, which run.py checks against: one digest
for a workload the seed does not change, else one per seed in
run.GOLDEN_SEEDS.  Re-record only when a change is meant to alter
simulated behaviour.

``sweep`` measures each workload untraced once per seed in SWEEP_SEEDS,
then traced on the first of them, each run ``run_seconds`` long as
BENCHMARK.json sets it.  It writes one result file per workload: every
run's metrics, checks and provenance, and for each end-to-end metric the
median, quartiles and spread ((q3 - q1) / median) next to its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from run import GOLDEN_SEEDS, measure, run_pass  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SWEEP_SEEDS = range(1, 11)


def golden() -> None:
    table = {}
    for wl in WORKLOADS.values():
        digests = {}
        for seed in GOLDEN_SEEDS if wl.seeded else (0,):
            p = run_pass(wl.name, seed, 0)
            failed = [c["name"] for c in p["checks"] if not c["ok"]]
            if failed:
                sys.exit(f"{wl.name} seed {seed}: checks failed: {failed}")
            digests[str(seed)] = p["digest"]
            print(f"{wl.name} seed {seed}: {p['digest']}", flush=True)
        table[wl.name] = digests if wl.seeded else digests["0"]
    (HERE / "golden.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def _run(wl, seed: int, seconds: float, trace: bool) -> dict:
    result = measure(wl, seed, seconds, trace)
    if not result["correct"]:
        sys.exit(f"{wl.name} seed {seed}: checks failed: "
                 f"{[c['name'] for c in result['checks'] if not c['ok']]}")
    return {"seed": seed, "attempted": result["attempted"], "metrics": result["metrics"],
            "provenance": result["provenance"], "checks_run": len(result["checks"]),
            "notes": result["notes"]}


def sweep(out_dir: Path) -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = list(SWEEP_SEEDS)
    out_dir.mkdir(parents=True, exist_ok=True)
    for wl in WORKLOADS.values():
        runs = []
        for seed in seeds:
            runs.append(_run(wl, seed, seconds, False))
            print(f"{wl.name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        summary = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            summary[metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                               "bound": bound, "spread_below_third_of_bound": spread < bound / 3}
            print(f"  {metric}: median {med:.5g}, spread {spread:.4f} "
                  f"(bound {bound}){'' if spread < bound / 3 else '  <-- wide'}", flush=True)
        traced = _run(wl, seeds[0], seconds, True)
        print(f"{wl.name} traced: overhead "
              f"{traced['metrics']['trace.overhead_ratio']['value']:.3f}, corrected "
              f"{traced['metrics']['trace.corrected_overhead_ratio']['value']:.3f}", flush=True)
        (out_dir / f"{wl.name}.json").write_text(json.dumps(
            {"workload": wl.name, "seconds": seconds, "seeds": seeds, "summary": summary,
             "untraced": runs, "traced": traced}, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("golden", "sweep"))
    parser.add_argument("--out-dir", default=str(HERE / "baseline"))
    args = parser.parse_args(argv)
    if args.mode == "golden":
        golden()
    else:
        sweep(Path(args.out_dir))
    return 0


if __name__ == "__main__":
    sys.exit(main())
