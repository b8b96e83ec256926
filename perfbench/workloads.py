"""The four workloads: seeded inputs, one timed pass, and output checks.

Every library call goes through a ``howedual`` module attribute
(``intertwine.distribution_G``, ``verify.run_suite`` ...) so that a traced
pass sees the wrappers installed by ``spans.patched``.  A pass times only
library work (or CLI calls); the checks run outside the timed segments.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

import numpy as np

from howedual import intertwine, reps, verify

import stats

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
REFERENCE_PATH = BENCH_DIR / "reference_digests.json"


@dataclass
class PassResult:
    """Timed segments and per-op outcomes of one pass."""

    timed_s: float = 0.0
    op_ms: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def add_op(self, seconds: float) -> None:
        self.timed_s += seconds
        self.op_ms.append(seconds * 1e3)

    def fail(self, what: str, why: str) -> None:
        """Record one failed op (call once per op)."""
        self.failures.append(f"{what}: {why}")


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def digest(payload) -> str:
    """sha256 of a JSON payload serialized with sorted keys."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def mu_from_b(bs, pair):
    """The occurring parameter with b_j = mu_j - delta + 1 (so every b_j >= 1 occurs)."""
    d = reps.delta_of(pair)
    return reps.HCParam([d + (b - 1) for b in bs])


def exact_key(l: int, lp: int, bs) -> str:
    return f"{l},{lp},{'-'.join(str(b) for b in bs)}"


def _fmt(param) -> str:
    # Passed as --opt=value: argparse would read a leading "-" as an option.
    return ",".join(param.to_json())


# ---------------------------------------------------------------------------
# exact-sweep
# ---------------------------------------------------------------------------

# b-sets per rank l; each runs at l' = l, l+1, l+2.  l = 5 is left out: one
# op takes about 100 s with the l!-term skew sum.
EXACT_FAMILIES = {
    1: [(b,) for b in range(12, 0, -1)],
    2: list(combinations(range(6, 0, -1), 2)),
    3: list(combinations(range(6, 0, -1), 3)),
    4: [(10, 8, 6, 4), (9, 7, 5, 3)],
}
# The ROADMAP baseline point for distribution_G at l = 4 (1.37 s at the seed commit).
BASELINE_L4_KEY = exact_key(4, 4, (10, 8, 6, 4))


def exact_enumeration():
    """Every (l, l', b-set) of the sweep, in a fixed order."""
    return [
        (l, l + off, bs)
        for l, family in EXACT_FAMILIES.items()
        for bs in family
        for off in (0, 1, 2)
    ]


def _proportional(p, q) -> bool:
    """True when polynomial p is an exact rational multiple of q (both nonzero)."""
    if p.is_zero() or q.is_zero() or set(p.terms) != set(q.terms):
        return False
    lead = max(q.terms)
    ratio = p.terms[lead] / q.terms[lead]
    return all(p.terms[e] == c * ratio for e, c in q.terms.items())


class ExactSweep:
    """Each op: distribution_G, distribution_Gprime of the partner, multiplicity one.

    The composition is the whole enumeration, so every seed does the same
    work; the seed fixes the order.  Each (pair, mu) appears once, so there
    is no input reuse for a cache to exploit.
    """

    name = "exact-sweep"
    nominal_pass_s = None  # one pass per run

    def inputs(self, seed: int, pass_index: int):
        ops = exact_enumeration()
        random.Random(seed * 1_000_003 + pass_index).shuffle(ops)
        out = []
        for l, lp, bs in ops:
            pair = reps.DualPair(l, lp)
            out.append((exact_key(l, lp, bs), pair, mu_from_b(bs, pair)))
        return {"ops": out, "reference": load_reference()["exact-sweep"]}

    def run_pass(self, inputs, tracer=None) -> PassResult:
        res = PassResult()
        reference = inputs["reference"]
        for key, pair, mu in inputs["ops"]:
            with _span(tracer, "bench.op"):
                t0 = time.perf_counter()
                try:
                    g = intertwine.distribution_G(mu, pair)
                    t1 = time.perf_counter()
                    gp = intertwine.distribution_Gprime(reps.correspond(mu, pair), pair)
                    one = intertwine.multiplicity_one_check(mu, pair)
                    error = None
                except Exception as exc:  # a raising op is a failed op
                    error = f"{type(exc).__name__}: {exc}"
                res.add_op(time.perf_counter() - t0)
            if error:
                res.fail(key, error)
                continue
            if key == BASELINE_L4_KEY:
                res.notes["distribution_G_l4_s"] = t1 - t0
            problems = []
            if one is not True:
                problems.append("multiplicity_one_check is not True")
            if not _proportional(g.poly, gp.poly):
                problems.append("G' polynomial is not a rational multiple of the G polynomial")
            ref = reference.get(key)
            if ref is None:
                problems.append("no reference digest")
            elif digest(g.to_json()) != ref["g"] or digest(gp.to_json()) != ref["gprime"]:
                problems.append("DistributionData.to_json() differs from the reference digest")
            if problems:
                res.fail(key, "; ".join(problems))
        return res


# ---------------------------------------------------------------------------
# eval-points
# ---------------------------------------------------------------------------

# (pair, mu, points per pass).  The 30/40/30 mix puts the op median inside
# the l = 2 class and the 90th percentile inside the l = 3 class.
EVAL_PARAMS = (
    ((1, 2), ("4",), 30),
    ((2, 3), ("6", "4"), 40),
    ((3, 4), ("8", "6", "4"), 30),
)
EVAL_AGREE_REL = 1e-12
INVARIANCE_REL = 1e-9


def _gaussian(g: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return (g.standard_normal((rows, cols)) + 1j * g.standard_normal((rows, cols))) / math.sqrt(2.0)


def _haar(g: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(_gaussian(g, n, n))
    d = np.diagonal(r)
    return q * (d / np.abs(d))[None, :]


class EvalPoints:
    """Seeded complex-Gaussian points at three fixed parameters, both public paths.

    Each op evaluates one point through ``eval_on_W`` (rebuilds the exact
    data) and through ``eval_distribution`` on data built once per pass.
    """

    name = "eval-points"
    nominal_pass_s = 1.3

    def inputs(self, seed: int, pass_index: int):
        g = np.random.default_rng([seed, pass_index])
        params = [(reps.DualPair(*pr), reps.HCParam(list(mu))) for pr, mu, _ in EVAL_PARAMS]
        points = []
        for i, ((l, lp), _, count) in enumerate(EVAL_PARAMS):
            for _ in range(count):
                w = _gaussian(g, l, lp)
                moved = _haar(g, l) @ w @ _haar(g, lp).conj().T
                points.append((i, w, moved))
        order = g.permutation(len(points))
        return {"params": params, "points": [points[j] for j in order]}

    def run_pass(self, inputs, tracer=None) -> PassResult:
        res = PassResult()
        params = inputs["params"]
        t0 = time.perf_counter()
        datas = [intertwine.distribution_G(mu, pair) for pair, mu in params]
        res.timed_s += time.perf_counter() - t0
        for i, w, moved in inputs["points"]:
            pair, mu = params[i]
            what = f"point at {pair.l},{pair.lp}"
            with _span(tracer, "bench.op"):
                t0 = time.perf_counter()
                try:
                    rebuilt = intertwine.eval_on_W(mu, pair, w)
                    built = intertwine.eval_distribution(datas[i], pair, w)
                    error = None
                except Exception as exc:
                    error = f"{type(exc).__name__}: {exc}"
                res.add_op(time.perf_counter() - t0)
            if error:
                res.fail(what, error)
                continue
            if not (math.isfinite(rebuilt) and math.isfinite(built)) or built == 0.0:
                res.fail(what, f"value not finite and nonzero: {rebuilt!r}, {built!r}")
                continue
            problems = []
            if abs(rebuilt - built) > EVAL_AGREE_REL * abs(built):
                problems.append(f"eval_on_W {rebuilt!r} != eval_distribution {built!r}")
            moved_value = intertwine.eval_distribution(datas[i], pair, moved)
            if abs(moved_value - built) > INVARIANCE_REL * abs(built):
                problems.append(f"value at u W v^-1 {moved_value!r} != value at W {built!r}")
            if problems:
                res.fail(what, "; ".join(problems))
        return res


# ---------------------------------------------------------------------------
# verify-mc
# ---------------------------------------------------------------------------

VERIFY_SUITES = (
    "cayley_volume",
    "forrester_warnaar",
    "gaussian_vandermonde",
    "vandermonde_identity",
    "dan_determinant",
    "cayley_invariance",
    "cw_identity",
    "distribution_invariance",
)
# The CLI default budget.  Below it the (l=3, c=0) Gaussian-Vandermonde
# estimate has a relative sigma near its 1% gate and fails on seeds.
VERIFY_SAMPLES = 1_000_000


class VerifyMc:
    """One op, the verdict: ``run_suite`` over all eight suites at the CLI default budget.

    The suites run one call each so that a traced pass can put a span
    around every suite; together the calls perform exactly the checks of
    ``run_suite(["all"], seed, samples)``.  The verdict passes when every
    suite passes.
    """

    name = "verify-mc"
    nominal_pass_s = None  # one pass per run

    def inputs(self, seed: int, pass_index: int):
        return {"seed": seed, "samples": VERIFY_SAMPLES}

    def run_pass(self, inputs, tracer=None) -> PassResult:
        res = PassResult()
        elapsed = 0.0
        problems = []
        for suite in VERIFY_SUITES:
            with _span(tracer, f"verify.{suite}"):
                t0 = time.perf_counter()
                try:
                    summary = verify.run_suite([suite], inputs["seed"], inputs["samples"])
                except Exception as exc:
                    summary = None
                    problems.append(f"{suite}: {type(exc).__name__}: {exc}")
                elapsed += time.perf_counter() - t0
            if summary is not None and (not summary["checks"] or summary["pass"] is not True):
                bad = [c["name"] for c in summary["checks"] if not c["pass"]]
                problems.append(f"{suite}: summary does not pass (failing checks: {bad})")
        res.add_op(elapsed)
        if problems:
            res.fail("verify all", "; ".join(problems))
        return res


# ---------------------------------------------------------------------------
# cli-session
# ---------------------------------------------------------------------------

CHEAP_SUITES = "forrester_warnaar,vandermonde_identity,dan_determinant,cayley_invariance,cw_identity,distribution_invariance"
# b-sets for the CLI's exact commands; all lie in EXACT_FAMILIES, so the
# dist outputs are checked against the exact-sweep reference digests.
CLI_BSETS = {1: (4,), 2: (5, 3), 3: (5, 3, 2)}
CLI_SUBCOMMANDS = ("occurs", "correspond", "dims", "constants", "dist", "eval", "verify")
# README exit codes: 0 success, 1 domain error (also a negative occurrence
# query), 2 usage error, 3 verification failure.


def cli_env() -> dict:
    env = dict(os.environ)
    env.pop("HD_SEED", None)  # it would override --seed
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class CliCall:
    sub: str
    argv: list
    code: int
    expect: object  # the exact payload, or a callable(payload) -> bool
    replay: object = None  # the in-process reps call behind this command, for tracing


class CliSession:
    """A fixed sequence of ``python -m howedual`` calls, run one at a time."""

    name = "cli-session"
    nominal_pass_s = 7.0

    def inputs(self, seed: int, pass_index: int):
        rng = random.Random(f"cli-session/{seed}/{pass_index}")
        reference = load_reference()["exact-sweep"]

        def pick(l):
            pair = reps.DualPair(l, l + rng.randrange(3))
            bs = CLI_BSETS[l]
            return pair, mu_from_b(bs, pair), exact_key(pair.l, pair.lp, bs)

        def pair_args(pair):
            return ["--l", str(pair.l), "--lp", str(pair.lp)]

        calls = []
        pair1, mu1, _ = pick(1)
        calls.append(CliCall("occurs", pair_args(pair1) + ["--mu", _fmt(mu1)], 0, {"occurs": True},
                             lambda p=pair1, m=mu1: reps.occurs_G_reason(m, p)))
        neg = reps.DualPair(1, 2)
        calls.append(CliCall("occurs", pair_args(neg) + ["--mu", "1/2"], 1,
                             {"occurs": False, "reason": "parity"},
                             lambda p=neg: reps.occurs_G_reason(reps.HCParam(["1/2"]), p)))
        pair2, mu2, _ = pick(2)
        mup2 = reps.correspond(mu2, pair2)
        calls.append(CliCall("occurs", pair_args(pair2) + ["--side", "gprime", f"--mu-prime={_fmt(mup2)}"], 0,
                             {"occurs": True}, lambda p=pair2, m=mup2: reps.occurs_Gprime_reason(m, p)))
        calls.append(CliCall("correspond", pair_args(pair2) + ["--mu", _fmt(mu2)], 0,
                             {"mu_prime": mup2.to_json(), "dim_pi": reps.dim_weyl(mu2),
                              "dim_pi_prime": reps.dim_piprime(mup2, pair2)},
                             lambda p=pair2, m=mu2: reps.correspond(m, p)))
        calls.append(CliCall("correspond", pair_args(pair2) + ["--back", f"--mu-prime={_fmt(mup2)}"], 0,
                             {"mu": mu2.to_json(), "dim_pi": reps.dim_weyl(mu2), "dim_pi_prime": reps.dim_weyl(mup2)},
                             lambda p=pair2, m=mup2: reps.correspond_back(m, p)))
        calls.append(CliCall("correspond", pair_args(neg) + ["--mu", "0"], 1, lambda p: set(p) == {"error"}))
        calls.append(CliCall("dims", pair_args(pair2) + ["--mu", _fmt(mu2)], 0,
                             {"dim_pi": reps.dim_weyl(mu2), "mu_prime": mup2.to_json(),
                              "dim_pi_prime": reps.dim_piprime(mup2, pair2)}))
        calls.append(CliCall("constants", pair_args(pair2), 0,
                             {k: v.to_json() for k, v in intertwine.constants(pair2).items()}))
        for l in (1, 2, 3):
            pair, mu, key = pick(l)
            mup = reps.correspond(mu, pair)
            for argv, ref in (
                (["--mu", _fmt(mu)], reference[key]["g"]),
                (["--side", "gprime", f"--mu-prime={_fmt(mup)}"], reference[key]["gprime"]),
            ):
                calls.append(CliCall("dist", pair_args(pair) + argv + ["--emit-latex"], 0,
                                     lambda p, ref=ref: _dist_matches(p, ref)))
        g = np.random.default_rng([seed, pass_index, 7])
        w = _gaussian(g, pair2.l, pair2.lp)
        OUT_DIR.mkdir(exist_ok=True)
        matrix_path = OUT_DIR / f"w-{os.getpid()}-{pass_index}.json"
        matrix_path.write_text(json.dumps([[[z.real, z.imag] for z in row] for row in w]), encoding="utf-8")
        value = intertwine.eval_on_W(mu2, pair2, w)
        calls.append(CliCall("eval", pair_args(pair2) + ["--mu", _fmt(mu2), "--at", str(matrix_path)], 0,
                             lambda p, v=value: set(p) == {"value"} and math.isfinite(p["value"])
                             and abs(p["value"] - v) <= EVAL_AGREE_REL * abs(v)))
        calls.append(CliCall("verify", ["--suite", CHEAP_SUITES, "--seed", str(rng.randrange(10_000))], 0,
                             lambda p: p["pass"] is True and len(p["checks"]) > 0))
        return {"calls": calls, "files": [matrix_path]}

    def run_pass(self, inputs, tracer=None) -> PassResult:
        res = PassResult()
        env = cli_env()
        per_call = []
        try:
            for call in inputs["calls"]:
                argv = [sys.executable, "-m", "howedual", call.sub, *call.argv]
                what = " ".join(["howedual", call.sub, *call.argv])
                with _span(tracer, f"cli.{call.sub}"):
                    t0 = time.perf_counter()
                    try:
                        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, timeout=120)
                    except subprocess.TimeoutExpired:
                        proc = None
                    elapsed = time.perf_counter() - t0
                res.add_op(elapsed)
                if proc is None:
                    res.fail(what, "no exit within 120 s")
                    continue
                per_call.append((call.sub, elapsed * 1e3, len(proc.stdout)))
                if tracer is not None and call.replay is not None:
                    call.replay()
                if proc.returncode != call.code:
                    res.fail(what, f"exit code {proc.returncode}, documented {call.code}; "
                                   f"stderr {proc.stderr.decode(errors='replace')[-300:]!r}")
                    continue
                try:
                    payload = stats.strict_json(proc.stdout.decode("utf-8"))
                except ValueError as exc:
                    res.fail(what, f"stdout is not strict JSON: {exc}")
                    continue
                ok = call.expect(payload) if callable(call.expect) else payload == call.expect
                if not ok:
                    res.fail(what, f"unexpected payload {json.dumps(payload)[:300]}")
        finally:
            for path in inputs["files"]:
                path.unlink(missing_ok=True)
        res.notes["cli_calls"] = per_call
        return res


def _dist_matches(payload, ref_digest: str) -> bool:
    latex = payload.pop("latex", None)
    return isinstance(latex, str) and bool(latex) and digest(payload) == ref_digest


def spawn_ms(argv, repeats: int = 5) -> float:
    """Median wall time in ms of running ``argv`` to completion."""
    env = cli_env()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, timeout=60, check=True)
        times.append((time.perf_counter() - t0) * 1e3)
    times.sort()
    return times[len(times) // 2]


WORKLOADS = {w.name: w for w in (ExactSweep(), EvalPoints(), VerifyMc(), CliSession())}


def pass_count(workload, seconds: float) -> int:
    """Passes in one run: fixed work for a given --seconds, about that long on the seed commit."""
    if workload.nominal_pass_s is None:
        return 1
    return max(1, round(seconds / workload.nominal_pass_s))
