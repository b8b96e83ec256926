"""Command-line front end: every computation as a JSON-emitting subcommand.

Exit codes: 0 success, 1 domain error (e.g. a non-occurring parameter where
occurrence is required, or a failed occurrence query), 2 usage error,
3 verification failure.  Output is a single UTF-8 JSON document per
invocation and is byte-identical for identical argv and seed; the
environment variable HD_SEED overrides --seed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

import numpy as np

from .intertwine import (
    DistributionData,
    constants,
    distribution_G,
    distribution_Gprime,
    eval_distribution,
    eval_on_W,
)
from .reps import (
    DualPair,
    HCParam,
    HighestWeight,
    correspond,
    correspond_back,
    dim_piprime,
    dim_weyl,
    hc_param,
    occurs_G_reason,
    occurs_Gprime_reason,
)
from .verify import run_suite

__all__ = ["main", "build_parser"]


class UsageError(Exception):
    pass


def _pair(args) -> DualPair:
    pair = DualPair(args.l, args.lp)
    pair.require_ordered()
    return pair


def _mu_from(args, pair: DualPair) -> HCParam:
    if getattr(args, "hw", None):
        hw = HighestWeight.parse(args.hw)
        return hc_param(hw, pair)
    if not args.mu:
        raise UsageError("--mu (or --hw) is required")
    return HCParam.parse(args.mu)


def _load_matrix(path: str, pair: DualPair) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        mat = np.array([[complex(re, im) for re, im in row] for row in raw])
    except (OSError, ValueError, TypeError, json.JSONDecodeError) as exc:
        raise UsageError(f"malformed matrix file {path!r}: {exc}")
    if mat.shape != (pair.l, pair.lp):
        raise UsageError(f"matrix must be {pair.l} x {pair.lp}, got {mat.shape}")
    if not np.isfinite(mat).all():
        raise UsageError(f"matrix file {path!r} has a non-finite entry")
    return mat


def _emit(payload: dict):
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


# -- subcommand handlers -----------------------------------------------------


def _cmd_occurs(args) -> tuple[int, dict]:
    pair = _pair(args)
    if args.side == "gprime":
        mup = HCParam.parse(args.mu_prime) if args.mu_prime else None
        if mup is None:
            raise UsageError("--mu-prime is required with --side gprime")
        ok, reason = occurs_Gprime_reason(mup, pair)
    else:
        ok, reason = occurs_G_reason(_mu_from(args, pair), pair)
    payload: dict = {"occurs": ok}
    if not ok:
        payload["reason"] = reason
    return (0 if ok else 1), payload


def _cmd_correspond(args) -> tuple[int, dict]:
    pair = _pair(args)
    if args.back:
        if not args.mu_prime:
            raise UsageError("--mu-prime is required with --back")
        mup = HCParam.parse(args.mu_prime)
        mu = correspond_back(mup, pair)
        return 0, {
            "mu": mu.to_json(),
            "dim_pi": dim_weyl(mu),
            "dim_pi_prime": dim_weyl(mup),
        }
    mu = _mu_from(args, pair)
    mup = correspond(mu, pair)
    return 0, {
        "mu_prime": mup.to_json(),
        "dim_pi": dim_weyl(mu),
        "dim_pi_prime": dim_piprime(mup, pair),
    }


def _cmd_dims(args) -> tuple[int, dict]:
    pair = _pair(args)
    if args.mu_prime:
        mup = HCParam.parse(args.mu_prime)
        payload = {"dim_pi_prime": dim_weyl(mup)}
        ok, _ = occurs_Gprime_reason(mup, pair)
        if ok:
            payload["dim_pi_prime_formula"] = dim_piprime(mup, pair)
            payload["dim_pi"] = dim_weyl(correspond_back(mup, pair))
        return 0, payload
    mu = _mu_from(args, pair)
    payload = {"dim_pi": dim_weyl(mu)}
    ok, _ = occurs_G_reason(mu, pair)
    if ok:
        mup = correspond(mu, pair)
        payload["mu_prime"] = mup.to_json()
        payload["dim_pi_prime"] = dim_piprime(mup, pair)
    return 0, payload


def _cmd_constants(args) -> tuple[int, dict]:
    pair = _pair(args)
    return 0, {name: value.to_json() for name, value in constants(pair).items()}


def _dist_payload(args, pair: DualPair, data: DistributionData) -> dict:
    payload = data.to_json()
    if args.emit_latex and not data.is_zero():
        payload["latex"] = data.poly.to_latex()
    if args.at:
        payload["value_at"] = eval_distribution(data, pair, _load_matrix(args.at, pair))
    return payload


def _cmd_dist(args) -> tuple[int, dict]:
    pair = _pair(args)
    if args.side == "gprime":
        if not args.mu_prime:
            raise UsageError("--mu-prime is required with --side gprime")
        data = distribution_Gprime(HCParam.parse(args.mu_prime), pair)
    else:
        data = distribution_G(_mu_from(args, pair), pair)
    return 0, _dist_payload(args, pair, data)


def _cmd_eval(args) -> tuple[int, dict]:
    pair = _pair(args)
    mu = _mu_from(args, pair)
    mat = _load_matrix(args.at, pair)
    return 0, {"value": eval_on_W(mu, pair, mat)}


def _cmd_verify(args) -> tuple[int, dict]:
    seed, source = args.seed, "--seed"
    if "HD_SEED" in os.environ:
        source = "HD_SEED"
        try:
            seed = int(os.environ["HD_SEED"])
        except ValueError:
            raise UsageError(f"HD_SEED must be an integer, got {os.environ['HD_SEED']!r}") from None
    # the seed is a Philox key
    if not 0 <= seed < 2**128:
        raise UsageError(f"{source} must be in [0, 2**128), got {seed}")
    if args.samples < 1:
        raise UsageError(f"--samples must be positive, got {args.samples}")
    summary = run_suite(args.suite.split(","), seed=seed, samples=args.samples)
    return (0 if summary["pass"] else 3), summary


# -- parser -------------------------------------------------------------------


def _add_pair_args(sub):
    sub.add_argument("--l", type=int, required=True, help="rank of the first member U_l")
    sub.add_argument("--lp", type=int, required=True, help="rank of the second member U_l'")


# Parameter values such as -1/2,-3/2 start with "-"; argparse would read
# them as options, so they are attached to their flag as --mu-prime=-1/2,...
_PARAM_FLAGS = ("--mu", "--mu-prime", "--hw")
_NEGATIVE_VALUE = re.compile(r"-[0-9.]")


def _attach_negative_values(argv: list[str]) -> list[str]:
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _PARAM_FLAGS and _NEGATIVE_VALUE.match(arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def _add_mu_args(sub, with_side=False):
    sub.add_argument("--mu", help="Harish-Chandra parameter, e.g. 2 or 3/2,1/2")
    sub.add_argument("--hw", help="highest weight instead of --mu (converted via rho)")
    sub.add_argument("--mu-prime", dest="mu_prime", help="second-member parameter, e.g. 0,-2")
    if with_side:
        sub.add_argument("--side", choices=("g", "gprime"), default="g")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="howedual",
        description="Exact Howe-duality data for the dual pair (U_l, U_l').",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("occurs", help="occurrence test for a parameter")
    _add_pair_args(p)
    _add_mu_args(p, with_side=True)
    p.set_defaults(handler=_cmd_occurs)

    p = subs.add_parser("correspond", help="the partner parameter and both dimensions")
    _add_pair_args(p)
    _add_mu_args(p)
    p.add_argument("--back", action="store_true", help="invert: map mu' back to mu")
    p.set_defaults(handler=_cmd_correspond)

    p = subs.add_parser("dims", help="dimension formulas")
    _add_pair_args(p)
    _add_mu_args(p)
    p.set_defaults(handler=_cmd_dims)

    p = subs.add_parser("constants", help="the normalization-constant chain")
    _add_pair_args(p)
    p.set_defaults(handler=_cmd_constants)

    p = subs.add_parser("dist", help="intertwining distribution as exact data")
    _add_pair_args(p)
    _add_mu_args(p, with_side=True)
    p.add_argument("--at", help="JSON matrix file ([[re,im],...] rows) to evaluate at")
    p.add_argument("--emit-latex", dest="emit_latex", action="store_true")
    p.set_defaults(handler=_cmd_dist)

    p = subs.add_parser("eval", help="numeric value of the distribution at a matrix")
    _add_pair_args(p)
    _add_mu_args(p)
    p.add_argument("--at", required=True, help="JSON matrix file ([[re,im],...] rows)")
    p.set_defaults(handler=_cmd_eval)

    p = subs.add_parser("verify", help="numeric verification suites")
    p.add_argument("--suite", default="all", help="comma list of suites or 'all'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=1_000_000)
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        code, payload = args.handler(args)
        _emit(payload)
    except UsageError as exc:
        _emit({"error": str(exc)})
        return 2
    except ValueError as exc:
        _emit({"error": str(exc)})
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(main())
