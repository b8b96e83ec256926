"""Tests of the benchmark's own helpers.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import math

import numpy as np
import pytest

import layers
import run
import spans
import stats
import workloads
from howedual import intertwine, reps, verify


# -- workload generation -----------------------------------------------------


def test_exact_sweep_inputs_are_deterministic_and_occurring():
    wl = workloads.ExactSweep()
    first = [key for key, _, _ in wl.inputs(5, 0)["ops"]]
    again = [key for key, _, _ in wl.inputs(5, 0)["ops"]]
    other = [key for key, _, _ in wl.inputs(6, 0)["ops"]]
    assert first == again
    assert first != other and sorted(first) == sorted(other)
    assert len(set(first)) == len(first)  # each (pair, mu) once
    reference = workloads.load_reference()["exact-sweep"]
    for key, pair, mu in wl.inputs(5, 0)["ops"]:
        assert reps.occurs_G(mu, pair)
        assert pair.l <= 4 and pair.l <= pair.lp <= pair.l + 2
        assert key in reference


def test_exact_sweep_percentiles_fall_inside_rank_classes():
    ops = workloads.exact_enumeration()
    counts = {l: sum(1 for op in ops if op[0] == l) for l in (1, 2, 3, 4)}
    n = len(ops)
    rank90 = math.ceil(0.9 * n)
    # the l = 4 ops are the slowest; the p90 rank lies strictly inside the l = 3 block below them
    assert n - counts[4] > rank90 > n - counts[4] - counts[3]
    assert n - rank90 >= 10


def test_eval_points_inputs_are_deterministic():
    wl = workloads.EvalPoints()
    a, b, c = wl.inputs(3, 0), wl.inputs(3, 0), wl.inputs(3, 1)
    assert len(a["points"]) == sum(count for _, _, count in workloads.EVAL_PARAMS)
    for (i, w, moved), (j, w2, moved2) in zip(a["points"], b["points"]):
        assert i == j and np.array_equal(w, w2) and np.array_equal(moved, moved2)
    assert not all(np.array_equal(p[1], q[1]) for p, q in zip(a["points"], c["points"]))


def test_cli_session_inputs_are_deterministic():
    wl = workloads.CliSession()
    a, b = wl.inputs(4, 0), wl.inputs(4, 0)
    try:
        assert [(c.sub, c.argv, c.code) for c in a["calls"]] == [(c.sub, c.argv, c.code) for c in b["calls"]]
        assert {c.sub for c in a["calls"]} == set(workloads.CLI_SUBCOMMANDS)
        assert a["files"][0].read_text() == b["files"][0].read_text()
    finally:
        for path in a["files"] + b["files"]:
            path.unlink(missing_ok=True)


def test_single_suites_perform_the_checks_of_all():
    merged = []
    for suite in workloads.VERIFY_SUITES:
        merged += verify.run_suite([suite], 11, 2000)["checks"]
    assert merged == verify.run_suite(["all"], 11, 2000)["checks"]


# -- percentile helper and strict JSON -----------------------------------------


def test_tail_percentile_needs_ten_samples_beyond():
    assert stats.tail_percentile(list(range(1, 101))) == (90.0, 90, 100, 10)
    assert stats.tail_percentile(list(range(1, 1001))) == (99.0, 990, 1000, 10)
    assert stats.tail_percentile(list(range(20))) == (50.0, 9, 20, 10)
    assert stats.tail_percentile(list(range(15))) is None


def test_percentile_reports_samples_beyond():
    assert stats.percentile([5.0, 1.0, 3.0, 2.0, 4.0], 90) == (5.0, 0)
    assert stats.percentile(list(range(10)), 50) == (4, 5)


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_strict_json_rejects_non_finite_constants(token):
    with pytest.raises(ValueError):
        stats.strict_json('{"value": %s}' % token)


def test_strict_json_accepts_standard_json():
    assert stats.strict_json('{"value": 1.5e-300, "ok": true}') == {"value": 1.5e-300, "ok": True}


# -- spans -------------------------------------------------------------------


def test_self_time_is_span_minus_children():
    tr = spans.Tracer()
    outer = tr.open("outer")
    a = tr.open("a")
    a1 = tr.open("a1")
    tr.close(a1)
    tr.close(a)
    b = tr.open("b")
    tr.close(b)
    tr.close(outer)
    # pin the clock readings: outer [0, 10], a [1, 5], a1 [2, 3], b [6, 9]
    for idx, (start, end) in {outer: (0.0, 10.0), a: (1.0, 5.0), a1: (2.0, 3.0), b: (6.0, 9.0)}.items():
        tr.starts[idx], tr.ends[idx] = start, end
    assert tr.self_times() == [10.0 - 4.0 - 3.0, 4.0 - 1.0, 1.0, 3.0]
    summary = tr.summary()
    assert summary["outer"]["total_s"] == 10.0 and summary["outer"]["self_s"] == 3.0


def test_patched_wraps_every_lookup_and_restores():
    original = intertwine.skew_symmetrize
    tr = spans.Tracer()
    functions, methods = layers.patch_specs()
    with spans.patched(tr, functions, methods):
        assert intertwine.skew_symmetrize is not original
        assert intertwine.skew_symmetrize.__wrapped__ is original
        pair = reps.DualPair(2, 3)
        intertwine.distribution_G(workloads.mu_from_b((3, 1), pair), pair)
    assert intertwine.skew_symmetrize is original
    assert intertwine.MultiPoly.eval_float is intertwine.MultiPoly.__dict__["eval_float"]
    assert tr.summary()["intertwine.skew_symmetrize"]["calls"] == 1
    assert tr.summary()["pab.pab2"]["calls"] == 2


# -- exact counts repeat -------------------------------------------------------

COUNTS = (
    "pab.pab2.calls",
    "intertwine.product_terms",
    "intertwine.skew_terms",
    "intertwine.poly_monomials",
    "intertwine.constants.calls",
    "intertwine.dist_builds_per_point",
    "verify.mc.samples",
)


def _traced_counts(wl, inputs):
    tr = spans.Tracer()
    functions, methods = layers.patch_specs()
    with spans.patched(tr, functions, methods):
        result = wl.run_pass(inputs, tr)
    metrics = layers.layer_metrics(tr)
    return result, {name: metrics[name] for name in COUNTS}


def test_exact_counts_repeat_for_a_fixed_seed():
    exact = workloads.ExactSweep()
    inputs = exact.inputs(9, 0)
    inputs["ops"] = [op for op in inputs["ops"] if op[1].l <= 2]
    res1, c1 = _traced_counts(exact, inputs)
    res2, c2 = _traced_counts(exact, exact.inputs(9, 0) | {"ops": inputs["ops"]})
    assert not res1.failures and c1 == c2 and c1["pab.pab2.calls"] > 0

    ev = workloads.EvalPoints()
    points = ev.inputs(9, 0)
    points["points"] = points["points"][:12]
    res1, c1 = _traced_counts(ev, points)
    _, c2 = _traced_counts(ev, points)
    assert not res1.failures and c1 == c2 and c1["intertwine.dist_builds_per_point"] == 1.0

    vm = workloads.VerifyMc()
    _, c1 = _traced_counts(vm, {"seed": 9, "samples": 1000})
    _, c2 = _traced_counts(vm, {"seed": 9, "samples": 1000})
    assert c1 == c2 and c1["verify.mc.samples"] == 1000 + 1000 * 4 * (1 + 4 + 40)


# -- the benchmark description matches the code --------------------------------


def test_benchmark_json_lists_the_reported_metrics():
    with open(workloads.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
