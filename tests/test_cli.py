"""CLI subcommands: payloads, exit codes, determinism, round trips."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from howedual.cli import main
from howedual.reps import DualPair, HCParam, _DoubledTuple, correspond
from howedual.verify import MAX_SAMPLES


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out, parse_constant=_reject_constant)


def test_correspond_payload(capsys):
    code, payload = run_cli(capsys, "correspond", "--l", "1", "--lp", "2", "--mu", "2")
    assert code == 0
    assert payload == {"mu_prime": ["0", "-2"], "dim_pi": 1, "dim_pi_prime": 2}


def test_correspond_round_trip(capsys):
    code, payload = run_cli(capsys, "correspond", "--l", "2", "--lp", "3", "--mu", "2,1")
    assert code == 0
    code, back = run_cli(
        capsys,
        "correspond",
        "--l",
        "2",
        "--lp",
        "3",
        "--back",
        "--mu-prime",
        ",".join(payload["mu_prime"]),
    )
    assert code == 0
    assert back["mu"] == ["2", "1"]


def test_correspond_domain_error(capsys):
    code, payload = run_cli(capsys, "correspond", "--l", "1", "--lp", "2", "--mu", "0")
    assert code == 1
    assert "error" in payload


def test_occurs_exit_codes(capsys):
    code, payload = run_cli(capsys, "occurs", "--l", "1", "--lp", "2", "--mu", "2")
    assert code == 0 and payload == {"occurs": True}
    code, payload = run_cli(capsys, "occurs", "--l", "1", "--lp", "2", "--mu", "1/2")
    assert code == 1 and payload == {"occurs": False, "reason": "parity"}
    code, payload = run_cli(
        capsys, "occurs", "--l", "1", "--lp", "2", "--side", "gprime", "--mu-prime", "0,-2"
    )
    assert code == 0 and payload["occurs"] is True


def test_occurs_with_highest_weight(capsys):
    # --hw converts through mu = lambda + rho
    code, payload = run_cli(capsys, "occurs", "--l", "1", "--lp", "2", "--hw", "2")
    assert code == 0 and payload["occurs"] is True


def test_dist_payload(capsys):
    code, payload = run_cli(capsys, "dist", "--l", "1", "--lp", "2", "--mu", "2")
    assert code == 0
    assert payload["poly"] == [
        {"exp": [1], "coeff": "4"},
        {"exp": [0], "coeff": "-4"},
    ]
    assert payload["variables"] == "z_j = 2*pi*y_j"


def test_dist_gprime_and_zero(capsys):
    code, payload = run_cli(
        capsys, "dist", "--side", "gprime", "--l", "1", "--lp", "2", "--mu-prime", "0,-2"
    )
    assert code == 0
    assert payload["poly"] == [
        {"exp": [1], "coeff": "4"},
        {"exp": [0], "coeff": "-4"},
    ]
    # the second-member prefactor carries the extra factor 2: |pref| = 4 pi
    assert payload["prefactor"]["sqrt2_pow"] == 4
    code, payload = run_cli(capsys, "dist", "--l", "1", "--lp", "2", "--mu", "0")
    assert code == 0 and payload == {"zero": True}


def test_dist_latex(capsys):
    code, payload = run_cli(
        capsys, "dist", "--l", "1", "--lp", "2", "--mu", "2", "--emit-latex"
    )
    assert code == 0
    assert payload["latex"] == "4 z_{1} - 4"


def test_dist_eval_at_matrix(tmp_path, capsys):
    mat = tmp_path / "w.json"
    mat.write_text(json.dumps([[[0.5, 0.0], [0.0, 0.3]]]))
    code, payload = run_cli(
        capsys, "dist", "--l", "1", "--lp", "2", "--mu", "2", "--at", str(mat)
    )
    assert code == 0
    code2, evaled = run_cli(
        capsys, "eval", "--l", "1", "--lp", "2", "--mu", "2", "--at", str(mat)
    )
    assert code2 == 0
    assert payload["value_at"] == evaled["value"]
    # the second-member value at the same point differs by its extra factor 2
    code3, gp = run_cli(
        capsys,
        "dist", "--side", "gprime", "--l", "1", "--lp", "2",
        "--mu-prime", "0,-2", "--at", str(mat),
    )
    assert code3 == 0
    assert gp["value_at"] == pytest.approx(2 * payload["value_at"])
    # a non-occurring parameter has the zero distribution, 0 at every point
    code4, zero = run_cli(capsys, "dist", "--l", "1", "--lp", "2", "--mu", "0", "--at", str(mat))
    assert code4 == 0 and zero == {"value_at": 0.0, "zero": True}


def test_matrix_shape_error(tmp_path, capsys):
    mat = tmp_path / "w.json"
    mat.write_text(json.dumps([[[0.5, 0.0]]]))  # 1x1, not 1x2
    code, payload = run_cli(
        capsys, "eval", "--l", "1", "--lp", "2", "--mu", "2", "--at", str(mat)
    )
    assert code == 2
    assert "error" in payload


def test_unreadable_matrix_file_is_usage_error(tmp_path, capsys):
    mat = tmp_path / "w.json"
    mat.write_text("[[[0.5, 0.0], [0.0,")  # truncated JSON
    for path in (tmp_path / "missing.json", mat):
        code, payload = run_cli(capsys, "eval", "--l", "1", "--lp", "2", "--mu", "2", "--at", str(path))
        assert code == 2
        assert payload["error"].startswith(f"malformed matrix file {str(path)!r}")


def test_missing_mu_is_usage_error(capsys):
    code, payload = run_cli(capsys, "correspond", "--l", "1", "--lp", "2")
    assert code == 2
    assert "error" in payload


def test_constants_payload(capsys):
    code, payload = run_cli(capsys, "constants", "--l", "1", "--lp", "2")
    assert code == 0
    assert payload["vol_G"] == {"rat": "1", "sqrt2_pow": 2, "pi_pow": 1, "i_pow": 0}
    assert payload["C_W"] == {"rat": "1", "sqrt2_pow": 5, "pi_pow": 0, "i_pow": 0}


def test_dims_payload(capsys):
    code, payload = run_cli(capsys, "dims", "--l", "1", "--lp", "2", "--mu", "2")
    assert code == 0
    assert payload["dim_pi"] == 1
    assert payload["dim_pi_prime"] == 2
    assert payload["mu_prime"] == ["0", "-2"]


def test_byte_identical_output(capsys):
    main(["correspond", "--l", "2", "--lp", "4", "--mu", "5/2,3/2"])
    first = capsys.readouterr().out
    main(["correspond", "--l", "2", "--lp", "4", "--mu", "5/2,3/2"])
    second = capsys.readouterr().out
    assert first == second


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["occurs", "--l", "1"])  # missing required --lp
    assert exc.value.code == 2


def test_verify_subcommand(capsys):
    code, payload = run_cli(
        capsys, "verify", "--suite", "dan_determinant,cw_identity", "--seed", "3", "--samples", "100"
    )
    assert code == 0
    assert payload["pass"] is True
    assert payload["seed"] == 3


def test_hd_seed_does_not_override_seed(capsys, monkeypatch):
    monkeypatch.setenv("HD_SEED", "9")
    code, payload = run_cli(
        capsys, "verify", "--suite", "dan_determinant", "--seed", "3", "--samples", "100"
    )
    assert code == 0
    assert payload["seed"] == 3


def test_negative_parameter_values_parse(capsys):
    # every occurring mu' with l = l' is all-negative
    code, payload = run_cli(
        capsys, "dist", "--side", "gprime", "--l", "2", "--lp", "2", "--mu-prime", "-1/2,-3/2"
    )
    assert code == 0 and "poly" in payload
    code, payload = run_cli(
        capsys, "correspond", "--l", "2", "--lp", "2", "--back", "--mu-prime", "-1/2,-3/2"
    )
    assert code == 0
    code, payload = run_cli(capsys, "occurs", "--l", "1", "--lp", "2", "--mu", "-1")
    assert code == 1 and payload["occurs"] is False


def test_non_finite_matrix_entry_is_usage_error(tmp_path, capsys):
    mat = tmp_path / "w.json"
    for entry in ("NaN", "Infinity", "1e400"):
        mat.write_text(f"[[[{entry}, 0.0], [0.0, 0.3]]]")
        for sub in ("eval", "dist"):
            code, payload = run_cli(
                capsys, sub, "--l", "1", "--lp", "2", "--mu", "2", "--at", str(mat)
            )
            assert code == 2 and "error" in payload


def test_overflowing_matrix_is_domain_error(tmp_path, capsys):
    mat = tmp_path / "w.json"
    mat.write_text(json.dumps([[[1e200, 0.0], [0.0, 0.3]]]))  # w w^dagger overflows
    for sub in ("eval", "dist"):
        code, payload = run_cli(capsys, sub, "--l", "1", "--lp", "2", "--mu", "2", "--at", str(mat))
        assert code == 1 and "error" in payload
    # w w^dagger is finite, but the polynomial overflows at its eigenvalues
    mat.write_text(json.dumps([[[1e150, 0], [0, 0], [0, 0]], [[0, 0], [1e150, 0], [0, 0]]]))
    code, payload = run_cli(capsys, "eval", "--l", "2", "--lp", "3", "--mu", "6,4", "--at", str(mat))
    assert code == 1 and "error" in payload


def test_zero_samples_is_usage_error(capsys):
    code, payload = run_cli(capsys, "verify", "--suite", "cayley_volume", "--samples=0")
    assert code == 2 and "--samples" in payload["error"]


def test_negative_samples_is_usage_error(capsys):
    code, payload = run_cli(capsys, "verify", "--suite", "cayley_volume", "--samples=-5")
    assert code == 2 and "--samples" in payload["error"]


@pytest.mark.parametrize("samples", [MAX_SAMPLES + 1, 10**15])
def test_samples_past_the_bound_is_usage_error(capsys, samples):
    # 10^15 ran out of memory building its block list before the bound
    start = time.perf_counter()
    code, payload = run_cli(capsys, "verify", "--suite", "cayley_volume", "--samples", str(samples))
    assert time.perf_counter() - start < 1.0
    assert code == 2 and payload == {"error": f"--samples must be in [1, {MAX_SAMPLES}], got {samples}"}


def test_negative_seed_is_usage_error(capsys):
    code, payload = run_cli(capsys, "verify", "--suite", "dan_determinant", "--seed=-1")
    assert code == 2 and "--seed" in payload["error"]


def test_seed_beyond_philox_key_is_usage_error(capsys):
    code, payload = run_cli(capsys, "verify", "--suite", "dan_determinant", "--seed", str(2**128))
    assert code == 2 and "--seed" in payload["error"]
    # the largest key still runs
    code, payload = run_cli(
        capsys, "verify", "--suite", "dan_determinant", "--seed", str(2**128 - 1)
    )
    assert code == 0 and payload["seed"] == 2**128 - 1


def test_unknown_suite_is_usage_error(capsys):
    code, payload = run_cli(capsys, "verify", "--suite", "nope", "--samples", "100")
    assert code == 2 and "'nope'" in payload["error"]


def test_empty_suite_is_usage_error(capsys):
    code, payload = run_cli(capsys, "verify", "--suite", "", "--samples", "100")
    assert code == 2 and "--suite" in payload["error"]


def test_unknown_suite_next_to_all_is_usage_error(capsys):
    code, payload = run_cli(capsys, "verify", "--suite", "all,nope", "--samples", "100")
    assert code == 2 and "'nope'" in payload["error"]


def run_module(*argv, timeout=30):
    """``python -m howedual`` in a subprocess, with this checkout's sources."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-m", "howedual", *argv], env=env, capture_output=True, timeout=timeout
    )


def test_dist_past_the_size_limit_fails_at_once():
    # l = 7 at mu_j = delta + 2(l-1-j) + 3 has 5,160,960 product terms
    proc = run_module("dist", "--l", "7", "--lp", "8", "--mu", "16,14,12,10,8,6,4")
    assert proc.returncode == 1
    payload = json.loads(proc.stdout, parse_constant=_reject_constant)
    assert set(payload) == {"error"} and "5160960" in payload["error"]
    assert b"Traceback" not in proc.stderr


@pytest.mark.parametrize("mu, digits", [("2000", 5134), ("100000", 426469)])
def test_dist_with_unprintable_coefficients_fails_at_once(mu, digits):
    # P_{-mu,mu,2} has the coefficient 2^mu / (mu - 1)!; at mu = 100000 the
    # product has few enough terms, so only the coefficient size refuses it
    proc = run_module("dist", "--l", "1", "--lp", "2", "--mu", mu)
    assert proc.returncode == 1
    payload = json.loads(proc.stdout, parse_constant=_reject_constant)
    limit = sys.get_int_max_str_digits()
    assert payload == {
        "error": f"a coefficient would have {digits} digits, "
        f"past the print limit of {limit}"
    }
    assert proc.stderr == b""


def run_to_json(*argv, timeout=30):
    """Exit code and the one strict-JSON stdout document of a subprocess run
    that writes no traceback."""
    proc = run_module(*argv, timeout=timeout)
    assert b"Traceback" not in proc.stderr
    return proc.returncode, json.loads(proc.stdout, parse_constant=_reject_constant)


def test_constants_at_the_print_limit_keeps_its_bytes():
    # sha256 of the stdout that constants --l 1 --lp 90 printed before the
    # refusal existed; its vol(U_l') rational has 4190 digits
    proc = run_module("constants", "--l", "1", "--lp", "90")
    assert proc.returncode == 0 and proc.stderr == b""
    digest = "805ab118a3c3c58459b890679c2eee3b6f79c044dddf03178b714344598d988c"
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


@pytest.mark.parametrize("lp, digits", [("91", 4302), ("100000", 20237941715)])
def test_constants_past_the_print_limit_fails_at_once(lp, digits):
    # the odd part of prod_{k<l'} k! is refused before vol(U_l') is built
    code, payload = run_to_json("constants", "--l", "1", "--lp", lp)
    limit = sys.get_int_max_str_digits()
    assert code == 1
    assert payload == {"error": f"vol(U_l') would have {digits} digits, past the print limit of {limit}"}


@pytest.mark.parametrize(
    "argv, flag",
    [(["occurs", "--l", "1", "--lp", "9" * 5000, "--mu", "2"], "--lp"), (["verify", "--seed", "9" * 5000], "--seed")],
)
def test_a_5000_digit_integer_flag_is_refused_in_the_same_words_at_every_limit(capsys, argv, flag):
    # the text is sized before int() runs, so no interpreter setting lets it through
    limit = sys.get_int_max_str_digits()
    outs = []
    for setting in (4300, 0):
        sys.set_int_max_str_digits(setting)
        try:
            with pytest.raises(SystemExit) as exc:
                main(argv)
        finally:
            sys.set_int_max_str_digits(limit)
        assert exc.value.code == 2
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    message = f"argument {flag}: integer would have 5000 digits, past the print limit of 4300"
    assert json.loads(outs[0], parse_constant=_reject_constant) == {"error": message}


def _least_binomial_past(t: int) -> int:
    """The least n with binomial(n, 2) >= t."""
    n = math.isqrt(2 * t)
    while n * (n - 1) // 2 < t:
        n += 1
    return n


@pytest.mark.parametrize(
    "argv, what",
    [
        # dim Pi = 10^4300
        (["dims", "--l", "2", "--lp", "2", "--mu", f"5{'0' * 4299},-5{'0' * 4299}"], "dim Pi"),
        # dim Pi' = binomial(mu - 1/2, 2), the least one past 10^4300
        (["correspond", "--l", "1", "--lp", "3", "--mu", f"{2 * _least_binomial_past(10**4300) + 1}/2"], "dim Pi'"),
    ],
    ids=["dim_pi", "dim_pi_prime"],
)
def test_a_dimension_at_the_print_limit_is_refused_in_the_same_words_at_every_limit(capsys, argv, what):
    # within the float error of the log sizing, so the dimension is built and then held to the limit exactly
    limit = sys.get_int_max_str_digits()
    outs = []
    for setting in (4300, 0):
        sys.set_int_max_str_digits(setting)
        try:
            assert main(argv) == 1
        finally:
            sys.set_int_max_str_digits(limit)
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    message = f"{what} would have 4301 digits, past the print limit of 4300"
    assert json.loads(outs[0], parse_constant=_reject_constant) == {"error": message}


@pytest.mark.parametrize("command", ["correspond", "dims"])
def test_a_partner_past_the_rank_bound_is_refused_before_it_is_built(command):
    # dim Pi' = 10^8 prints, but the partner has 10^8 entries
    proc = run_module(command, "--l", "1", "--lp", "100000000", "--mu", "50000001", timeout=10)
    assert proc.returncode == 1 and b"Traceback" not in proc.stderr
    payload = json.loads(proc.stdout, parse_constant=_reject_constant)
    assert payload == {"error": "l' is past 1000000, the most entries a second-member parameter may have"}
    # dim Pi' is sized from mu first, so one too long to print keeps its
    # refusal past the bound, in the words it had when the partner was built
    proc = run_module(command, "--l", "1", "--lp", "5000000", "--mu", "5000000", timeout=10)
    limit = sys.get_int_max_str_digits()
    assert proc.returncode == 1
    payload = json.loads(proc.stdout, parse_constant=_reject_constant)
    assert payload == {"error": f"dim Pi' would have 2073256 digits, past the print limit of {limit}"}


def test_constants_at_a_huge_second_rank_is_sized_in_log_time():
    # vol(U_l') is sized from the Barnes G expansion and bitwise popcounts;
    # the loop over k < l' it replaced took 6 s at l' = 10^7
    code, payload = run_to_json("constants", "--l", "1", "--lp", str(10**12), timeout=10)
    match = re.fullmatch(r"vol\(U_l'\) would have (\d+) digits, past the print limit of \d+", payload["error"])
    assert code == 1 and match and 5.52e24 < int(match[1]) < 5.53e24


def test_correspond_at_the_print_limit_keeps_its_bytes():
    # sha256 of the stdout that correspond printed before the dimension
    # guard existed; its dim Pi' = binomial(15332, 9999) has 4300 digits
    proc = run_module("correspond", "--l", "1", "--lp", "10000", "--mu", "10333")
    assert proc.returncode == 0 and proc.stderr == b""
    digest = "58ad8e4455687cd1b32abc8905358537bdd1d3cb048be7cbb4033ee08de80a9d"
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


@pytest.mark.parametrize(
    "command, lp, mu, digits",
    [("correspond", "10000", "10334", 4301), ("dims", "200000", "150000", 54328)],
)
def test_dim_piprime_past_the_print_limit_fails_at_once(command, lp, mu, digits):
    # dim Pi' is refused before it is built; building it took about 6 s at l' = 200000
    code, payload = run_to_json(command, "--l", "1", "--lp", lp, "--mu", mu, timeout=10)
    limit = sys.get_int_max_str_digits()
    assert code == 1
    assert payload == {"error": f"dim Pi' would have {digits} digits, past the print limit of {limit}"}


def test_dim_piprime_guard_refuses_exactly_what_str_cannot_print(capsys):
    # at the interpreter's smallest digit limit dim Pi' = binomial(mu + 749, 1499)
    # outgrows str between these two parameters of (U_1, U_1500)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, payload = run_cli(capsys, "correspond", "--l", "1", "--lp", "1500", "--mu", "1542")
        assert code == 0 and len(str(payload["dim_pi_prime"])) == 640
        code, payload = run_cli(capsys, "dims", "--l", "1", "--lp", "1500", "--mu", "1543")
        assert code == 1
        assert payload == {"error": "dim Pi' would have 641 digits, past the print limit of 640"}
    finally:
        sys.set_int_max_str_digits(limit)


def test_dim_piprime_is_refused_before_a_parameter_is_serialized(capsys, monkeypatch):
    # at l' = 200000 the second-member parameter alone took 74 ms to serialize
    mu_prime = ",".join(correspond(HCParam(["1543"]), DualPair(1, 1500)).to_json())

    def unreachable(self):
        raise AssertionError("a parameter was serialized before dim Pi' was refused")

    monkeypatch.setattr(_DoubledTuple, "to_json", unreachable)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for argv in (
            ("correspond", "--mu", "1543"),
            ("correspond", "--back", f"--mu-prime={mu_prime}"),
            ("dims", "--mu", "1543"),
        ):
            code, payload = run_cli(capsys, argv[0], "--l", "1", "--lp", "1500", *argv[1:])
            assert code == 1
            assert payload == {"error": "dim Pi' would have 641 digits, past the print limit of 640"}
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("command", ["correspond", "dims"])
@pytest.mark.parametrize(
    "l, lp, mu, mu_prime, dim",
    [
        # adjacent entries past 2^53, equal as floats
        ("2", "3", "100000000000000001,100000000000000000",
         ["0", "-100000000000000000", "-100000000000000001"], 5000000000000000050000000000000000),
        # an entry past the float range
        ("1", "2", str(10**400), ["0", str(-(10**400))], 10**400),
    ],
)
def test_dim_piprime_at_huge_entries_keeps_its_bytes(capsys, command, l, lp, mu, mu_prime, dim):
    # these printed before the guard existed, and the guard sizes them from
    # exact-integer logs: the same stdout, byte for byte
    assert main([command, "--l", l, "--lp", lp, "--mu", mu]) == 0
    expected = {"dim_pi": 1, "dim_pi_prime": dim, "mu_prime": mu_prime}
    assert capsys.readouterr().out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("lp", [10**160, 2**1100])
def test_constants_past_the_float_range_fails_at_once(lp):
    # log(0! 1! ... (l'-1)!) overflows a float here: a refusal, not NaN or a traceback
    code, payload = run_to_json("constants", "--l", "1", "--lp", str(lp), timeout=10)
    limit = sys.get_int_max_str_digits()
    assert code == 1
    assert payload == {"error": f"vol(U_l') would have more than 10^307 digits, past the print limit of {limit}"}


def test_gprime_prefactor_past_the_print_limit_fails_at_once():
    # the rational of the G' prefactor is +- the odd part of
    # prod_j perm(x_j + delta - 1, 2 delta - 1); on the partner of mu = delta
    # that is (l' - 1)! over its power of two: 4302 digits at l' = 1720,
    # which Python refused in its own words, and 4299 at l' = 1719
    limit = sys.get_int_max_str_digits()
    code, payload = run_to_json("dist", "--side", "gprime", *_partner_argv(1720, "860"), timeout=10)
    assert code == 1
    assert payload == {"error": f"the prefactor would have 4302 digits, past the print limit of {limit}"}
    proc = run_module("dist", "--side", "gprime", *_partner_argv(1719, "1719/2"), timeout=10)
    assert proc.returncode == 0 and proc.stderr == b""
    digest = "354be27b15a9a78aa7dc6dabd997a0db4772765a0649c147551b585dc4268661"
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


def test_large_second_rank_costs_what_the_first_rank_does():
    # these build no factorial past l' - 1 and no superfactorial of l'
    code, payload = run_to_json("dims", "--l", "1", "--lp", "3000", "--mu", "1500")
    assert code == 0 and payload["dim_pi"] == payload["dim_pi_prime"] == 1
    code, payload = run_to_json("dist", "--l", "1", "--lp", "5000", "--mu", "2500")
    assert code == 0 and len(payload["poly"]) == 1


def test_correspond_at_a_large_parameter_builds_no_factorial_of_it():
    # (x + delta - 1)! / (x - delta)! is the product of the l' - l integers
    # above x - delta; with the two factorials this took about 30 s
    proc = run_module("correspond", "--l", "1", "--lp", "2", "--mu", "1000000", timeout=10)
    assert proc.returncode == 0 and proc.stderr == b""
    payload = json.loads(proc.stdout, parse_constant=_reject_constant)
    assert payload == {"mu_prime": ["0", "-1000000"], "dim_pi": 1, "dim_pi_prime": 1000000}


def test_correspond_at_a_million_second_rank_builds_no_factorial_of_it():
    # dim Pi' = comb(10^6, 10^6 - 1); from perm and factorials of about l'
    # this took 22 s
    code, payload = run_to_json("correspond", "--l", "1", "--lp", "1000000", "--mu", "500001", timeout=10)
    assert code == 0 and payload["dim_pi"] == 1 and payload["dim_pi_prime"] == 1000000
    assert payload["mu_prime"][-2:] == ["-499999", "-500001"] and len(payload["mu_prime"]) == 1000000


def test_correspond_back_at_a_large_second_rank():
    # for l = 1, mu' is the rho-string of U_{l'-1} followed by -mu, and the
    # Weyl formula gives dim = binomial(mu + l'/2 - 1, l' - 1)
    mup = [str(1000 - j) for j in range(1, 2000)] + ["-20000"]
    argv = ["--l", "1", "--lp", "2000", "--back", f"--mu-prime={','.join(mup)}"]
    proc = run_module("correspond", *argv, timeout=10)
    assert proc.returncode == 0 and proc.stderr == b""
    payload = json.loads(proc.stdout, parse_constant=_reject_constant)
    assert payload == {"mu": ["20000"], "dim_pi": 1, "dim_pi_prime": math.comb(20999, 1999)}


def _partner_argv(lp, mu):
    mu_prime = ",".join(correspond(HCParam([mu]), DualPair(1, lp)).to_json())
    return ["--l", "1", "--lp", str(lp), f"--mu-prime={mu_prime}"]


def test_dims_of_a_second_member_parameter_at_a_large_second_rank():
    # Weyl's formula takes each run of consecutive entries as one ratio; the
    # product of l'(l'-1)/2 Fractions did not finish here in 30 s
    code, payload = run_to_json("dims", *_partner_argv(2000, "20000"), timeout=10)
    assert code == 0 and payload["dim_pi"] == 1
    assert payload["dim_pi_prime"] == payload["dim_pi_prime_formula"] == math.comb(20999, 1999)


def test_dims_of_a_second_member_parameter_at_the_print_limit():
    # dim Pi' = binomial(mu + 4999, 9999): 4300 digits at mu = 10333
    limit = sys.get_int_max_str_digits()
    code, payload = run_to_json("dims", *_partner_argv(10000, "10334"), timeout=10)
    assert code == 1
    assert payload == {"error": f"dim Pi' would have 4301 digits, past the print limit of {limit}"}
    code, payload = run_to_json("dims", *_partner_argv(10000, "10333"), timeout=10)
    assert code == 0 and payload["dim_pi_prime"] == payload["dim_pi_prime_formula"] == math.comb(15332, 9999)


@pytest.mark.parametrize(
    "entries, digits",
    [
        # the rho-string of U_10000 with its last entry moved, so mu' does
        # not occur: one run of 9999 entries against one far entry
        ([*range(5000, -4999, -1), -10334], "4301"),
        # no two entries consecutive: the log sum stops past the limit, so the
        # count is a lower bound; building the product did not finish in 20 s
        ([*range(5998, 3000, -2)], "at least 4302"),
    ],
)
def test_dims_weyl_past_the_print_limit_fails_at_once(entries, digits):
    mu_prime = ",".join(map(str, entries))
    code, payload = run_to_json("dims", "--l", "1", "--lp", str(len(entries)), f"--mu-prime={mu_prime}", timeout=10)
    limit = sys.get_int_max_str_digits()
    assert code == 1
    assert payload == {"error": f"dim Pi' would have {digits} digits, past the print limit of {limit}"}


def test_dim_weyl_guard_refuses_what_str_cannot_print(capsys):
    # dim Pi of a first-member parameter of (U_n, U_n) with entries two apart
    # is 2^(n(n-1)/2): 627 digits at n = 65 and 646 at n = 66
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, payload = run_cli(capsys, "dims", "--l", "65", "--lp", "65", f"--mu={','.join(map(str, range(0, -130, -2)))}")
        assert code == 0 and payload == {"dim_pi": 2**2080}
        code, payload = run_cli(capsys, "dims", "--l", "66", "--lp", "66", f"--mu={','.join(map(str, range(0, -132, -2)))}")
        assert code == 1
        assert payload == {"error": "dim Pi would have at least 642 digits, past the print limit of 640"}
    finally:
        sys.set_int_max_str_digits(limit)


def test_overflowing_eigenvalue_writes_nothing_to_stderr(tmp_path):
    # w w^dagger is finite at 1e154, 2 pi times its eigenvalue is not
    mat = tmp_path / "w.json"
    mat.write_text(json.dumps([[[1e154, 0.0], [0.0, 0.3]]]))
    proc = run_module("eval", "--l", "1", "--lp", "2", "--mu", "2", "--at", str(mat))
    assert proc.returncode == 1
    payload = json.loads(proc.stdout, parse_constant=_reject_constant)
    assert payload == {"error": "the value at w is not finite (w is too large)"}
    assert proc.stderr == b""


REVERSED_PAIR_ERROR = (
    "operation needs l <= l' (got l=3, l'=2); swap the pair for reversed-role computations"
)


@pytest.mark.parametrize(
    "argv",
    [
        ["occurs", "--mu", "2,1,0"],
        ["occurs", "--side", "gprime", "--mu-prime", "0,-2"],
        ["constants"],
        ["dist", "--mu", "2,1,0"],
    ],
)
def test_reversed_pair_is_domain_error(capsys, argv):
    code, payload = run_cli(capsys, argv[0], "--l", "3", "--lp", "2", *argv[1:])
    assert code == 1 and payload == {"error": REVERSED_PAIR_ERROR}


@pytest.mark.parametrize(
    "flag, text, message",
    [
        ("--mu", "abc", "--mu: Invalid literal for Fraction: 'abc'"),
        ("--mu", "1/3", "--mu: not a half-integer: '1/3'"),
        ("--mu", "1/0", "--mu: not a half-integer: '1/0'"),
        ("--mu", "1,2", "--mu: entries must be strictly decreasing: ['1', '2']"),
        ("--mu", "1,1/2", "--mu: entries must all be integers or all half-integers: ['1', '1/2']"),
        ("--mu", "2,,1", "--mu: Invalid literal for Fraction: ''"),
        ("--hw", "1,2", "--hw: entries must be weakly decreasing: ['1', '2']"),
    ],
)
def test_malformed_parameter_is_usage_error(capsys, flag, text, message):
    code, payload = run_cli(capsys, "occurs", "--l", "2", "--lp", "3", flag, text)
    assert code == 2 and payload == {"error": message}


@pytest.mark.parametrize(
    "argv",
    [["occurs", "--side", "gprime"], ["correspond", "--back"], ["dims"], ["dist", "--side", "gprime"]],
)
def test_malformed_second_member_parameter_is_usage_error(capsys, argv):
    code, payload = run_cli(capsys, argv[0], "--l", "1", "--lp", "2", *argv[1:], "--mu-prime", "0,x")
    assert code == 2 and payload == {"error": "--mu-prime: Invalid literal for Fraction: 'x'"}


_SECOND_MEMBER = {"occurs": ["--side", "gprime"], "correspond": ["--back"], "dims": [], "dist": ["--side", "gprime"]}


@pytest.mark.parametrize("command", sorted(_SECOND_MEMBER))
@pytest.mark.parametrize("flag", ["--mu", "--hw", "--mu-prime"])
def test_parameter_of_both_classes_is_usage_error(capsys, command, flag):
    # once answered "parity", "wrong parity class", "not genuine", "does not
    # occur", "not strictly dominant", a zero distribution or a dimension
    if flag == "--mu-prime":
        argv, text, shown = _SECOND_MEMBER[command], "1,1/2,-1", "['1', '1/2', '-1']"
    else:
        argv, text, shown = [], "1,1/2", "['1', '1/2']"
    code, payload = run_cli(capsys, command, "--l", "2", "--lp", "3", *argv, f"{flag}={text}")
    assert code == 2
    assert payload == {"error": f"{flag}: entries must all be integers or all half-integers: {shown}"}


def test_dims_of_both_classes_is_no_dimension(capsys):
    # its Weyl product is the integer 62
    code, payload = run_cli(capsys, "dims", "--l", "3", "--lp", "3", "--mu", "16,1/2,0")
    assert code == 2
    assert payload == {"error": "--mu: entries must all be integers or all half-integers: ['16', '1/2', '0']"}


def test_parameter_of_wrong_length_is_domain_error(capsys):
    code, payload = run_cli(capsys, "occurs", "--l", "1", "--lp", "2", "--mu", "2,1")
    assert code == 1 and payload == {"error": "parameter must have 1 entries, got 2"}


def test_non_genuine_weight_is_domain_error(capsys):
    code, payload = run_cli(capsys, "occurs", "--l", "2", "--lp", "3", "--hw", "1,0")
    assert code == 1 and "not genuine" in payload["error"]


def test_non_occurring_parameter_is_domain_error(capsys):
    code, payload = run_cli(capsys, "correspond", "--l", "1", "--lp", "2", "--mu", "0")
    assert code == 1 and payload == {"error": "parameter does not occur; no partner exists"}
    code, payload = run_cli(
        capsys, "occurs", "--l", "2", "--lp", "2", "--side", "gprime", "--mu-prime", "1/2,-3/2"
    )
    assert code == 1 and payload == {"occurs": False, "reason": "not-occurring"}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--mu", "1/2", "--hw", "2"], "argument --hw: not allowed with argument --mu"),
        (["--mu", "2", "--mu-prime", "5"], "argument --mu-prime: not allowed with argument --mu"),
    ],
)
def test_two_parameter_flags_are_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(["occurs", "--l", "1", "--lp", "2", *argv])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert json.loads(out, parse_constant=_reject_constant) == {"error": message}
    assert err.startswith("usage: howedual occurs")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["occurs", "--l", "abc", "--lp", "2"], "argument --l: invalid int value: 'abc'"),
        (["occurs", "--l", "1", "--mu", "2"], "the following arguments are required: --lp"),
        (["occurs", "--l", "1", "--lp", "2", "--bogus"], "unrecognized arguments: --bogus"),
        (["nope"], "argument command: invalid choice: 'nope'"),
        # eval reads only a first-member parameter
        (["eval", "--l", "1", "--lp", "2", "--mu-prime=0,-2", "--at", "w.json"], "unrecognized arguments: --mu-prime=0,-2"),
    ],
)
def test_argparse_error_is_one_json_document(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    payload = json.loads(out, parse_constant=_reject_constant)
    assert set(payload) == {"error"} and payload["error"].startswith(message)
    assert err.startswith("usage: howedual")
