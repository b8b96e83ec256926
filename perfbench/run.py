"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload exact-sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric, measured with tracing off.
``--trace 1`` prints every per-layer metric from one traced pass; it also
runs the untraced workload in a child process to get the tracing overhead.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable report.  The library is imported from ``src/`` next to this
directory, never from an installed copy.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 5

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

# ROADMAP baseline at the re-anchor (2 CPUs, Python 3.11.7, numpy 2.4.6).
BASELINE = {"distribution_G_l4_s": 1.37, "verify_all_s": 25.2, "occurs_s": 0.31}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("exact-sweep", "eval-points", "verify-mc", "cli-session"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_library():
    """Import howedual from this checkout's src/; exit 2 when it is not there."""
    if not (SRC / "howedual" / "__init__.py").is_file():
        print(f"error: {SRC / 'howedual'} not found; run from a checkout of the repository", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import howedual

    if Path(howedual.__file__).resolve().parent != (SRC / "howedual").resolve():
        print(f"error: imported howedual from {howedual.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


def machine_info() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    threads = {
        var: os.environ.get(var, "unset")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
    }
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
    }


def setup_seconds(args) -> list[float]:
    """Process start to ready (interpreter, import, input generation), SETUP_PROBES times."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    out = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
        lines = proc.stdout.split()
        if proc.returncode != 0 or len(lines) != 2 or lines[0] != "ready":
            raise RuntimeError(f"setup probe failed ({proc.returncode}): {proc.stderr[-500:]}")
        out.append(float(lines[1]) - t0)
    return out


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def write_record(args, record: dict) -> Path:
    import workloads

    workloads.OUT_DIR.mkdir(exist_ok=True)
    path = workloads.OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return path


def run_untraced(args, wl) -> tuple[dict, list, list]:
    import stats
    import workloads

    passes = []
    inputs = wl.inputs(args.seed, 0)
    for k in range(workloads.pass_count(wl, args.seconds)):
        if k:
            inputs = wl.inputs(args.seed, k)
        passes.append(wl.run_pass(inputs))
    rss = peak_rss_mb(children=args.workload == "cli-session")
    setups = setup_seconds(args)

    op_ms = [ms for p in passes for ms in p.op_ms]
    p50 = statistics.median(op_ms)
    p90, beyond90 = stats.percentile(op_ms, 90)
    walls = [p.timed_s for p in passes]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "op_p50_ms": p50,
        "op_p90_ms": p90,
        "peak_rss_mb": rss,
    }
    report = [
        f"setup_s {metrics['setup_s']:.4f} s (median of {len(setups)} set-ups)",
        f"wall_s {metrics['wall_s']:.4f} s (median of {len(walls)} pass(es); checks not timed)",
        f"op_p50_ms {p50:.4f} ms (n={len(op_ms)})",
        f"op_p90_ms {p90:.4f} ms (n={len(op_ms)}, {beyond90} samples beyond)",
        f"peak_rss_mb {rss:.2f} MB ({'largest child' if args.workload == 'cli-session' else 'this process'})",
    ]
    tail = stats.tail_percentile(op_ms)
    if tail:
        q, value, n, beyond = tail
        report.append(f"highest percentile with >=10 samples beyond: p{q:g} = {value:.4f} ms (n={n}, {beyond} beyond)")
    else:
        report.append(f"no percentile has >=10 samples beyond it (n={len(op_ms)}); op_p90_ms is a near-maximum")
    sanity = None
    if args.workload == "exact-sweep" and "distribution_G_l4_s" in passes[0].notes:
        sanity = ("distribution_G at l=4, mu_j = delta + 2(l-1-j) + 3", "distribution_G_l4_s",
                  passes[0].notes["distribution_G_l4_s"])
    elif args.workload == "verify-mc":
        sanity = ("verify all at 1e6 samples", "verify_all_s", metrics["wall_s"])
    elif args.workload == "cli-session":
        occurs = [ms for sub, ms, _ in passes[0].notes["cli_calls"] if sub == "occurs"]
        sanity = ("CLI occurs end to end", "occurs_s", statistics.median(occurs) / 1e3)
    if sanity:
        report.append(f"sanity vs ROADMAP baseline: {sanity[0]} {sanity[2]:.3f} s here, {BASELINE[sanity[1]]} s there")
    return metrics, passes, report


def run_traced(args, wl) -> tuple[dict, list, list]:
    import layers
    import spans
    import stats
    import workloads

    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if child.returncode != 0:
        raise RuntimeError(f"untraced child run failed ({child.returncode}): {child.stderr[-800:]}")
    untraced_wall = stats.strict_json(child.stdout.strip().splitlines()[-1])["metrics"]["wall_s"]["value"]

    tracer = spans.Tracer()
    inputs = wl.inputs(args.seed, 0)
    functions, methods = layers.patch_specs()
    with spans.patched(tracer, functions, methods):
        result = wl.run_pass(inputs, tracer)
    cli_probe = None
    if args.workload == "cli-session":
        interpreter = workloads.spawn_ms([sys.executable, "-c", "pass"])
        cli_probe = (interpreter, workloads.spawn_ms([sys.executable, "-c", "import howedual.cli"]) - interpreter)
    metrics = layers.layer_metrics(
        tracer,
        cli_calls=result.notes.get("cli_calls", ()),
        cli_probe=cli_probe,
        overhead_ratio=result.timed_s / untraced_wall,
    )
    workloads.OUT_DIR.mkdir(exist_ok=True)
    trace_path = workloads.OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json"
    tracer.write(trace_path)
    report = [
        f"traced pass {result.timed_s:.4f} s vs untraced {untraced_wall:.4f} s; {len(tracer.names)} spans in {trace_path.relative_to(ROOT)}",
    ]
    return metrics, [result], report


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        inputs = wl.inputs(args.seed, 0)
        print("ready", repr(time.monotonic()))
        for path in inputs.get("files", ()):
            path.unlink()
        return 0

    if args.trace:
        import layers

        values, passes, report = run_traced(args, wl)
        units = dict(layers.PER_LAYER)
    else:
        values, passes, report = run_untraced(args, wl)
        units = dict(END_TO_END)
    failures = [f for p in passes for f in p.failures]
    attempted = sum(len(p.op_ms) for p in passes)
    machine = machine_info()
    result = {
        "correct": not failures and attempted > 0,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record_path = write_record(args, {**result, "workload": args.workload, "seed": args.seed,
                                      "seconds": args.seconds, "machine": machine, "failures": failures})

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} ops in {len(passes)} pass(es), {len(failures)} failed")
    print("machine " + json.dumps(machine, sort_keys=True))
    for line in report:
        print(line)
    if args.trace:
        for name, unit in units.items():
            print(f"{name} {values[name]} {unit}")
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"record {record_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
