"""Which library functions the traced run wraps, and the per-layer metrics.

Layers are named after the library's modules.  A metric of a layer a
workload does not reach reads 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from howedual import intertwine, pab, reps, verify

from workloads import CLI_SUBCOMMANDS, VERIFY_SUITES

PER_LAYER = (
    [
        ("pab.pab2.calls", "count"),
        ("pab.pab2.self_ms", "ms"),
        ("intertwine.distribution.self_ms", "ms"),
        ("intertwine.skew_symmetrize.self_ms", "ms"),
        ("intertwine.divide_by_vandermonde.self_ms", "ms"),
        ("intertwine.value_at_zero_oracle.self_ms", "ms"),
        ("intertwine.multiplicity_one_check.self_ms", "ms"),
        ("intertwine.product_terms", "count"),
        ("intertwine.skew_terms", "count"),
        ("intertwine.poly_monomials", "count"),
        ("intertwine.constants.calls", "count"),
        ("intertwine.constants.self_ms", "ms"),
        ("intertwine.eigvalsh_jacobi.us_per_call", "us"),
        ("intertwine.eval_float.us_per_call", "us"),
        ("intertwine.eval_distribution.us_per_point", "us"),
        ("intertwine.dist_builds_per_point", "ratio"),
    ]
    + [(f"verify.{suite}.self_s", "s") for suite in VERIFY_SUITES]
    + [
        ("verify.mc.samples", "count"),
        ("verify.mc.samples_per_s", "1/s"),
        ("verify.exact_det.self_ms", "ms"),
        ("cli.interpreter_ms", "ms"),
        ("cli.import_ms", "ms"),
    ]
    + [(f"cli.{sub}.p50_ms", "ms") for sub in CLI_SUBCOMMANDS]
    + [(f"cli.{sub}.stdout_bytes", "count") for sub in CLI_SUBCOMMANDS]
    + [
        ("reps.occurs.self_us", "us"),
        ("reps.correspond.self_us", "us"),
        ("bench.trace_overhead_ratio", "ratio"),
    ]
)


def _terms_in_out(args, result):
    return {"in_terms": len(args[0].terms), "out_terms": len(result.terms)}


def _terms_out(args, result):
    return {"out_terms": len(result.terms)}


def _mc_samples(args, result):
    return {"samples": args[1]}


def patch_specs():
    """(functions, methods) for ``spans.patched``, resolved from the loaded modules."""
    functions = [
        ("pab.pab2", pab.pab2, None),
        ("intertwine.distribution_G", intertwine.distribution_G, None),
        ("intertwine.distribution_Gprime", intertwine.distribution_Gprime, None),
        ("intertwine.skew_symmetrize", intertwine.skew_symmetrize, _terms_in_out),
        ("intertwine.divide_by_vandermonde", intertwine.divide_by_vandermonde, _terms_out),
        ("intertwine.value_at_zero_oracle", intertwine.value_at_zero_oracle, None),
        ("intertwine.multiplicity_one_check", intertwine.multiplicity_one_check, None),
        ("intertwine.constants", intertwine.constants, None),
        ("intertwine.eigvalsh_jacobi", intertwine.eigvalsh_jacobi, None),
        ("intertwine.eval_distribution", intertwine.eval_distribution, None),
        ("intertwine.eval_on_W", intertwine.eval_on_W, None),
        ("verify.exact_det", verify.gaussian_vandermonde_exact, None),
        ("verify.exact_det", verify.gaussian_vandermonde_double_sum, None),
        ("verify.exact_det", verify.dan_determinant, None),
        ("verify.exact_det", verify.vandermonde_identity, None),
        ("verify.mc", verify.blocked_mean, _mc_samples),
        ("reps.occurs", reps.occurs_G, None),
        ("reps.occurs", reps.occurs_G_reason, None),
        ("reps.occurs", reps.occurs_Gprime, None),
        ("reps.occurs", reps.occurs_Gprime_reason, None),
        ("reps.correspond", reps.correspond, None),
        ("reps.correspond", reps.correspond_back, None),
    ]
    methods = [("intertwine.eval_float", intertwine.MultiPoly, "eval_float", None)]
    return functions, methods


def layer_metrics(tracer, cli_calls=(), cli_probe=None, overhead_ratio=0.0) -> dict:
    """Every PER_LAYER metric from one traced pass; 0 where the layer was not reached."""
    summary = tracer.summary()

    def row(name):
        return summary.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    def per_call(name, scale):
        r = row(name)
        return r["total_s"] / r["calls"] * scale if r["calls"] else 0.0

    def self_per_call(name, scale):
        r = row(name)
        return r["self_s"] / r["calls"] * scale if r["calls"] else 0.0

    out = {
        "pab.pab2.calls": row("pab.pab2")["calls"],
        "pab.pab2.self_ms": row("pab.pab2")["self_s"] * 1e3,
        "intertwine.distribution.self_ms": (
            row("intertwine.distribution_G")["self_s"] + row("intertwine.distribution_Gprime")["self_s"]
        ) * 1e3,
        "intertwine.product_terms": row("intertwine.skew_symmetrize").get("in_terms", 0),
        "intertwine.skew_terms": row("intertwine.skew_symmetrize").get("out_terms", 0),
        "intertwine.poly_monomials": row("intertwine.divide_by_vandermonde").get("out_terms", 0),
        "intertwine.constants.calls": row("intertwine.constants")["calls"],
        "intertwine.eigvalsh_jacobi.us_per_call": per_call("intertwine.eigvalsh_jacobi", 1e6),
        "intertwine.eval_float.us_per_call": per_call("intertwine.eval_float", 1e6),
        "intertwine.eval_distribution.us_per_point": per_call("intertwine.eval_distribution", 1e6),
        "verify.exact_det.self_ms": row("verify.exact_det")["self_s"] * 1e3,
        "verify.mc.samples": row("verify.mc").get("samples", 0),
        "reps.occurs.self_us": self_per_call("reps.occurs", 1e6),
        "reps.correspond.self_us": self_per_call("reps.correspond", 1e6),
        "bench.trace_overhead_ratio": overhead_ratio,
    }
    for name in (
        "constants",
        "skew_symmetrize",
        "divide_by_vandermonde",
        "value_at_zero_oracle",
        "multiplicity_one_check",
    ):
        out[f"intertwine.{name}.self_ms"] = row(f"intertwine.{name}")["self_s"] * 1e3
    rebuilds = row("intertwine.eval_on_W")["calls"]
    out["intertwine.dist_builds_per_point"] = (
        tracer.child_counts("intertwine.eval_on_W", "intertwine.distribution_G") / rebuilds
        if rebuilds
        else 0.0
    )
    for suite in VERIFY_SUITES:
        out[f"verify.{suite}.self_s"] = row(f"verify.{suite}")["self_s"]
    mc = row("verify.mc")
    out["verify.mc.samples_per_s"] = mc.get("samples", 0) / mc["self_s"] if mc["self_s"] else 0.0

    by_sub = defaultdict(list)
    nbytes = defaultdict(int)
    for sub, ms, size in cli_calls:
        by_sub[sub].append(ms)
        nbytes[sub] += size
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.{sub}.p50_ms"] = statistics.median(by_sub[sub]) if by_sub[sub] else 0.0
        out[f"cli.{sub}.stdout_bytes"] = nbytes[sub]
    interpreter_ms, import_ms = cli_probe if cli_probe else (0.0, 0.0)
    out["cli.interpreter_ms"] = interpreter_ms
    out["cli.import_ms"] = import_ms
    return out
