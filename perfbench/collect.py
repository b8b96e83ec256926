"""Run the benchmark over several seeds and summarize each end-to-end metric.

    python3 perfbench/collect.py --runs 10 [--workload exact-sweep ...] [--out FILE]

For every workload and metric it reports the median, the quartiles of
``statistics.quantiles(values, n=4)`` and the spread (Q3 - Q1) / median,
next to the metric's bound from BENCHMARK.json, then makes one traced run
at the first seed and keeps its per-layer metrics.  Runs are sequential.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import stats
from run import machine_info

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec, workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / spec["command"][1]), "--workload", workload, "--seed", str(seed),
         "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited {proc.returncode}: {proc.stderr[-800:]}")
    *report, last = proc.stdout.strip().splitlines()
    return stats.strict_json(last), report


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workload", action="append", choices=names)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"machine": machine_info()}
    for workload in args.workload or names:
        values = {name: [] for name in bounds}
        failed = 0
        report = None
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, lines = run_once(spec, workload, seed, trace=0)
            report = report or lines
            failed += result["failed"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        traced, _ = run_once(spec, workload, args.first_seed, trace=1)
        rows = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                          "bound": bounds[name], "values": vals}
            print(f"{workload:12s} {name:12s} median {med:12.4f}  spread {(q3 - q1) / med:7.4f}  "
                  f"(bound {bounds[name]}, third {bounds[name] / 3:.4f})", flush=True)
        summary[workload] = {
            "failed": failed,
            "seeds": [args.first_seed, args.first_seed + args.runs - 1],
            "metrics": rows,
            "first_run_report": report,
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
            "per_layer_failed": traced["failed"],
        }
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
