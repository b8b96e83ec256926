"""Command-line front end: every computation as a JSON-emitting subcommand.

Exit codes: 0 success, 1 domain error (e.g. a non-occurring parameter where
occurrence is required, or a failed occurrence query), 2 usage error
(including argparse errors, parameter text that is not a parameter, such as
a mix of integers and half-integers, and --samples past
``verify.MAX_SAMPLES``), 3 verification failure.  Output is a single UTF-8
JSON document per invocation and is byte-identical for identical argv;
``verify`` takes its seed from --seed alone.

Only the numeric subcommands load numpy: ``eval``, ``dist --at`` and
``verify`` import it (and ``verify`` its module) when they run, so
``occurs``, ``correspond``, ``dims``, ``constants`` and ``dist`` without
``--at`` start without it.

A dimension past the print limit (the interpreter's integer-string limit,
or 4300 digits where it has none) is refused here, before it is built,
from its logarithm: ``reps.dim_partner_log`` for the dim Pi' bracket,
read from the partner mu on both sides by ``_dim_partner``, and
``reps.dim_weyl_log`` for every Weyl dimension.  One within the float
error of that logarithm is built and then held to the limit exactly by
``exact.check_printable``, so the answer is the same at every interpreter
setting.  The library's ``dim_partner`` and ``dim_weyl`` themselves always
return the exact integer.  The integer flags are read by
``exact.parse_int``, which holds them to the same limit at every
interpreter setting.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from typing import TYPE_CHECKING

from .exact import check_digits, check_printable, parse_int, print_limit_log
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
    dim_partner,
    dim_partner_log,
    dim_weyl,
    dim_weyl_log,
    hc_param,
    occurs_G_reason,
    occurs_Gprime_reason,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = ["main", "build_parser"]


class UsageError(Exception):
    pass


def _param(cls, flag: str, text: str):
    """The parameter after ``flag``; text that is not one is a usage error."""
    try:
        return cls.parse(text)
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from None


def _mu_from(args, pair: DualPair) -> HCParam:
    if args.hw:
        return hc_param(_param(HighestWeight, "--hw", args.hw), pair)
    if not args.mu:
        raise UsageError("--mu (or --hw) is required")
    return _param(HCParam, "--mu", args.mu)


def _mup_from(args, context: str) -> HCParam:
    if not args.mu_prime:
        raise UsageError(f"--mu-prime is required {context}")
    return _param(HCParam, "--mu-prime", args.mu_prime)


def _load_matrix(path: str, pair: DualPair) -> np.ndarray:
    import numpy as np

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


def _dim_partner(mu: HCParam, pair: DualPair) -> int:
    """dim Pi' of the partner of mu, refused past the print limit from mu
    alone, before ``dim_partner`` checks l' and before any of the partner's
    l' entries is built; one within the float error of the limit is built
    and refused by ``check_printable``."""
    check_digits("dim Pi'", *dim_partner_log(mu, pair))
    dim = dim_partner(mu, pair)
    check_printable("dim Pi'", dim)
    return dim


def _dim_weyl(what: str, mu: HCParam) -> int:
    """``dim_weyl``, refused before it is built past the print limit, or by
    ``check_printable`` once built when within the float error of it.  The
    log sum may stop once it passes the limit; its digit count is then a
    lower bound, and the message says so."""
    stop = print_limit_log()
    log_size, scale = dim_weyl_log(mu, stop)
    check_digits(what, log_size, scale, at_least=log_size > stop)
    dim = dim_weyl(mu)
    check_printable(what, dim)
    return dim


def _emit(payload: dict):
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


# -- subcommand handlers -----------------------------------------------------


def _cmd_occurs(args) -> tuple[int, dict]:
    pair = DualPair(args.l, args.lp)
    if args.side == "gprime":
        ok, reason = occurs_Gprime_reason(_mup_from(args, "with --side gprime"), pair)
    else:
        ok, reason = occurs_G_reason(_mu_from(args, pair), pair)
    payload: dict = {"occurs": ok}
    if not ok:
        payload["reason"] = reason
    return (0 if ok else 1), payload


def _cmd_correspond(args) -> tuple[int, dict]:
    pair = DualPair(args.l, args.lp)
    # a dict display evaluates in order: dim Pi' is refused before any parameter is serialized
    if args.back:
        mup = _mup_from(args, "with --back")
        mu = correspond_back(mup, pair)
        return 0, {"dim_pi_prime": _dim_partner(mu, pair), "mu": mu.to_json(), "dim_pi": _dim_weyl("dim Pi", mu)}
    mu = _mu_from(args, pair)
    return 0, {
        "dim_pi_prime": _dim_partner(mu, pair),
        "mu_prime": correspond(mu, pair).to_json(),
        "dim_pi": _dim_weyl("dim Pi", mu),
    }


def _cmd_dims(args) -> tuple[int, dict]:
    pair = DualPair(args.l, args.lp)
    if args.mu_prime:
        mup = _param(HCParam, "--mu-prime", args.mu_prime)
        payload = {"dim_pi_prime": _dim_weyl("dim Pi'", mup)}
        ok, _ = occurs_Gprime_reason(mup, pair)
        if ok:
            mu = correspond_back(mup, pair)
            payload["dim_pi_prime_formula"] = _dim_partner(mu, pair)
            payload["dim_pi"] = _dim_weyl("dim Pi", mu)
        return 0, payload
    mu = _mu_from(args, pair)
    payload = {"dim_pi": _dim_weyl("dim Pi", mu)}
    ok, _ = occurs_G_reason(mu, pair)
    if ok:
        payload["dim_pi_prime"] = _dim_partner(mu, pair)  # refused before mu' is built
        payload["mu_prime"] = correspond(mu, pair).to_json()
    return 0, payload


def _cmd_constants(args) -> tuple[int, dict]:
    pair = DualPair(args.l, args.lp)
    return 0, {name: value.to_json() for name, value in constants(pair).items()}


def _dist_payload(args, pair: DualPair, data: DistributionData) -> dict:
    payload = data.to_json()
    if args.emit_latex and not data.is_zero():
        payload["latex"] = data.poly.to_latex()
    if args.at:
        payload["value_at"] = eval_distribution(data, pair, _load_matrix(args.at, pair))
    return payload


def _cmd_dist(args) -> tuple[int, dict]:
    pair = DualPair(args.l, args.lp)
    if args.side == "gprime":
        data = distribution_Gprime(_mup_from(args, "with --side gprime"), pair)
    else:
        data = distribution_G(_mu_from(args, pair), pair)
    return 0, _dist_payload(args, pair, data)


def _cmd_eval(args) -> tuple[int, dict]:
    pair = DualPair(args.l, args.lp)
    mu = _mu_from(args, pair)
    mat = _load_matrix(args.at, pair)
    return 0, {"value": eval_on_W(mu, pair, mat)}


def _cmd_verify(args) -> tuple[int, dict]:
    from .verify import MAX_SAMPLES, check_suite_names, run_suite

    # the seed keys the streams of verify.RngStream
    if not 0 <= args.seed < 2**128:
        raise UsageError(f"--seed must be in [0, 2**128), got {args.seed}")
    if not 1 <= args.samples <= MAX_SAMPLES:
        raise UsageError(f"--samples must be in [1, {MAX_SAMPLES}], got {args.samples}")
    names = args.suite.split(",")
    try:
        check_suite_names(names)
    except ValueError as exc:
        raise UsageError(f"--suite: {exc}") from None
    summary = run_suite(names, seed=args.seed, samples=args.samples)
    return (0 if summary["pass"] else 3), summary


# -- parser -------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Also writes each argparse error to stdout as one JSON document."""

    def error(self, message):
        _emit({"error": message})
        super().error(message)


def _int_flag(text: str) -> int:
    """The value of an integer flag, by ``exact.parse_int``."""
    try:
        return parse_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_pair_args(sub):
    sub.add_argument("--l", type=_int_flag, required=True, help="rank of the first member U_l")
    sub.add_argument("--lp", type=_int_flag, required=True, help="rank of the second member U_l'")


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


def _add_mu_args(sub):
    """--mu or --hw; returns their group, so --mu-prime can join it."""
    one = sub.add_mutually_exclusive_group()
    one.add_argument("--mu", help="Harish-Chandra parameter, e.g. 2 or 3/2,1/2")
    one.add_argument("--hw", help="highest weight instead of --mu (converted via rho)")
    return one


def _add_param_args(sub, with_side=False):
    """A parameter of either member: --mu, --hw or --mu-prime."""
    _add_mu_args(sub).add_argument("--mu-prime", dest="mu_prime", help="second-member parameter, e.g. 0,-2")
    if with_side:
        sub.add_argument("--side", choices=("g", "gprime"), default="g")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every ``main`` call."""
    parser = _Parser(
        prog="howedual",
        description="Exact Howe-duality data for the dual pair (U_l, U_l').",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("occurs", help="occurrence test for a parameter")
    _add_pair_args(p)
    _add_param_args(p, with_side=True)
    p.set_defaults(handler=_cmd_occurs)

    p = subs.add_parser("correspond", help="the partner parameter and both dimensions")
    _add_pair_args(p)
    _add_param_args(p)
    p.add_argument("--back", action="store_true", help="invert: map mu' back to mu")
    p.set_defaults(handler=_cmd_correspond)

    p = subs.add_parser("dims", help="dimension formulas")
    _add_pair_args(p)
    _add_param_args(p)
    p.set_defaults(handler=_cmd_dims)

    p = subs.add_parser("constants", help="the normalization-constant chain")
    _add_pair_args(p)
    p.set_defaults(handler=_cmd_constants)

    p = subs.add_parser("dist", help="intertwining distribution as exact data")
    _add_pair_args(p)
    _add_param_args(p, with_side=True)
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
    p.add_argument("--seed", type=_int_flag, default=0)
    p.add_argument("--samples", type=_int_flag, default=1_000_000)
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
