"""CLI subcommands: payloads, exit codes, determinism, round trips."""

import json

import pytest

from howedual.cli import main


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


def test_matrix_shape_error(tmp_path, capsys):
    mat = tmp_path / "w.json"
    mat.write_text(json.dumps([[[0.5, 0.0]]]))  # 1x1, not 1x2
    code, payload = run_cli(
        capsys, "eval", "--l", "1", "--lp", "2", "--mu", "2", "--at", str(mat)
    )
    assert code == 2
    assert "error" in payload


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


def test_hd_seed_overrides(capsys, monkeypatch):
    monkeypatch.setenv("HD_SEED", "9")
    code, payload = run_cli(
        capsys, "verify", "--suite", "dan_determinant", "--seed", "3", "--samples", "100"
    )
    assert code == 0
    assert payload["seed"] == 9


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


def test_non_integer_hd_seed_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("HD_SEED", "abc")
    code, payload = run_cli(capsys, "verify", "--suite", "dan_determinant", "--samples", "100")
    assert code == 2 and "HD_SEED" in payload["error"]


def test_zero_samples_is_usage_error(capsys):
    code, payload = run_cli(capsys, "verify", "--suite", "cayley_volume", "--samples=0")
    assert code == 2 and "--samples" in payload["error"]


def test_negative_samples_is_usage_error(capsys):
    code, payload = run_cli(capsys, "verify", "--suite", "cayley_volume", "--samples=-5")
    assert code == 2 and "--samples" in payload["error"]


def test_negative_seed_is_usage_error(capsys):
    code, payload = run_cli(capsys, "verify", "--suite", "dan_determinant", "--seed=-1")
    assert code == 2 and "--seed" in payload["error"]


def test_negative_hd_seed_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("HD_SEED", "-3")
    code, payload = run_cli(capsys, "verify", "--suite", "dan_determinant")
    assert code == 2 and "HD_SEED" in payload["error"]


def test_seed_beyond_philox_key_is_usage_error(capsys):
    code, payload = run_cli(capsys, "verify", "--suite", "dan_determinant", "--seed", str(2**128))
    assert code == 2 and "--seed" in payload["error"]
    # the largest key still runs
    code, payload = run_cli(
        capsys, "verify", "--suite", "dan_determinant", "--seed", str(2**128 - 1)
    )
    assert code == 0 and payload["seed"] == 2**128 - 1
