"""Numeric oracles: Haar sampling, the integral checks, determinant identities."""

from fractions import Fraction
from math import factorial, fsum, pi

import numpy as np
import pytest

from howedual import verify
from howedual import (
    DualPair,
    HCParam,
    McReport,
    RngStream,
    cayley_invariance_check,
    cayley_volume_check,
    cw_identity_check,
    dan_determinant,
    distribution_invariance,
    forrester_warnaar_check,
    gaussian_vandermonde,
    haar_unitary,
    vandermonde_identity,
)
from howedual.verify import (
    CAYLEY_JACOBIAN_EXPONENT,
    block_layout,
    blocked_mean,
    blocked_sums,
    gaussian_vandermonde_double_sum,
    gaussian_vandermonde_exact,
    run_suite,
)


def test_rng_stream_determinism():
    a = RngStream(42).generator().random(5)
    b = RngStream(42).generator().random(5)
    assert np.array_equal(a, b)
    # counter matters
    c = RngStream(42, 1).generator().random(5)
    assert not np.array_equal(a, c)


def test_blocked_sums_shard_merge():
    def part(g, m):
        return float(np.sum(g.random(m)))

    n = 400_000
    full = blocked_sums(RngStream(3), n, part)
    layout = block_layout(n)
    worker_a = [part(RngStream(3).shard(i).generator(), m) for i, m in layout[:2]]
    worker_b = [part(RngStream(3).shard(i).generator(), m) for i, m in layout[2:]]
    assert worker_a + worker_b == full
    # fsum is exactly rounded, so the merge order cannot change the mean
    assert fsum(worker_b + worker_a) / n == blocked_mean(RngStream(3), n, part)


def test_blocked_sums_worker_count_independent(monkeypatch):
    def part(g, m):
        return float(np.sum(g.random(m)))

    n = 1_000_000
    several = blocked_sums(RngStream(3), n, part)
    monkeypatch.setattr(verify, "_available_cpus", lambda: 8)
    assert blocked_sums(RngStream(3), n, part) == several
    monkeypatch.setattr(verify, "_available_cpus", lambda: 1)
    assert blocked_sums(RngStream(3), n, part) == several


def test_blocked_sums_propagates_errors():
    def part(g, m):
        if m < 1 << 17:  # the last, partial block
            raise RuntimeError("block failed")
        return float(np.sum(g.random(m)))

    with pytest.raises(RuntimeError, match="block failed"):
        blocked_sums(RngStream(3), 400_000, part)


def test_blocked_mean_needs_samples():
    with pytest.raises(ValueError):
        blocked_mean(RngStream(0), 0, lambda g, m: 0.0)
    with pytest.raises(ValueError):
        gaussian_vandermonde(1, 0, RngStream(0), samples=-5)


def _serial_mean(rng, samples, part):
    return fsum(part(rng.shard(i).generator(), m) for i, m in block_layout(samples)) / samples


def _gaussian_vandermonde_one_shot(l, c, rng, samples):
    """The estimate with every block drawn in one call and no threads."""
    gamma_norm = float(factorial(c)) ** l

    def part(g, m):
        y = g.gamma(shape=c + 1, scale=1.0, size=(m, l))
        v = np.ones(m)
        for j in range(l):
            for k in range(j + 1, l):
                v *= (y[:, j] - y[:, k]) ** 2
        return float(np.sum(v) * gamma_norm)

    return _serial_mean(rng, samples, part)


def _cayley_volume_one_shot(rng, samples):
    """The n = 2 estimate with every block drawn in one call and no threads."""
    box_volume = pi**2 * (2.0 * pi / np.sqrt(2.0)) ** 2

    def part(g, m):
        h12 = g.uniform(-pi / 2, pi / 2, size=(m, 2))
        h34 = g.uniform(-pi / np.sqrt(2.0), pi / np.sqrt(2.0), size=(m, 2))
        mean = (h12[:, 0] + h12[:, 1]) / 2.0
        half_gap = np.sqrt(
            ((h12[:, 0] - h12[:, 1]) / 2.0) ** 2 + (h34[:, 0] ** 2 + h34[:, 1] ** 2) / 2.0
        )
        inside = (np.abs(mean) + half_gap) < pi / 2
        gap = 2.0 * half_gap
        vals = np.where(inside, 16.0 * np.sinc(gap / pi) ** 2, 0.0)
        return float(np.sum(vals) * box_volume)

    return _serial_mean(rng, samples, part)


def test_chunked_threaded_estimates_are_bit_identical():
    # 300 000 samples: two full blocks and a partial one that ends in a
    # partial chunk
    n = 300_000
    assert [m for _, m in block_layout(n)][-1] % 8192 != 0
    for c in range(4):
        _, rep = gaussian_vandermonde(3, c, RngStream(11), samples=n)
        assert rep.estimate == _gaussian_vandermonde_one_shot(3, c, RngStream(11), n)
    for seed in (0, 5):
        rep = cayley_volume_check(2, n, RngStream(seed))
        assert rep.estimate == _cayley_volume_one_shot(RngStream(seed), n)


def test_haar_unitary_properties():
    rng = RngStream(7)
    for n in (1, 2, 3, 4):
        u = haar_unitary(n, rng.shard(n), count=100)
        res = np.max(np.abs(u @ u.conj().swapaxes(-1, -2) - np.eye(n)))
        assert res < 1e-12
        assert np.max(np.abs(np.abs(np.linalg.det(u)) - 1)) < 1e-12


def test_haar_unitary_first_entry_moment():
    # E |U_11|^2 = 1/n for Haar measure
    for n in (2, 3):
        u = haar_unitary(n, RngStream(100 + n), count=100_000)
        m = float(np.mean(np.abs(u[:, 0, 0]) ** 2))
        assert abs(m - 1.0 / n) < 0.01 / n * 3


def test_cayley_volume_n1():
    rep = cayley_volume_check(1, 0, RngStream(0))
    assert rep.target == pytest.approx(2 * pi)
    assert rep.rel_error < 1e-6


def test_cayley_volume_n2():
    rep = cayley_volume_check(2, 1_000_000, RngStream(0))
    assert rep.target == pytest.approx(8 * pi**3)
    assert rep.rel_error < 0.02
    # determinism under a fixed seed
    rep2 = cayley_volume_check(2, 1_000_000, RngStream(0))
    assert rep.estimate == rep2.estimate
    with pytest.raises(ValueError):
        cayley_volume_check(3, 10, RngStream(0))


def test_forrester_warnaar():
    r1 = forrester_warnaar_check(1)
    assert r1.target == pytest.approx(pi)
    assert r1.rel_error < 1e-12
    r2 = forrester_warnaar_check(2)
    assert r2.target == pytest.approx(pi**2 / 2)
    assert r2.rel_error < 1e-4


def test_gaussian_vandermonde_exact_values():
    # l = 1 is the plain Gamma integral
    for k in range(5):
        assert gaussian_vandermonde_exact(1, k) == factorial(k)
    assert gaussian_vandermonde_exact(2, 0) == 2
    # hand value: 2! * det[[0!,1!],[1!,2!]] = 2
    assert 2 * (1 * 2 - 1 * 1) == 2
    # the two independent exact evaluators agree
    for l in (1, 2, 3):
        for c in (0, 1, 2, 3):
            assert gaussian_vandermonde_exact(l, c) == gaussian_vandermonde_double_sum(l, c)


def test_gaussian_vandermonde_mc():
    exact, rep = gaussian_vandermonde(2, 0, RngStream(5), samples=2_000_000)
    assert exact == 2
    assert rep.rel_error < 0.01
    exact33, rep33 = gaussian_vandermonde(3, 3, RngStream(5), samples=8_000_000)
    assert exact33 == 207360
    assert rep33.rel_error < 0.01


def test_vandermonde_identity_small():
    lhs, rhs = vandermonde_identity([Fraction(5)])
    assert (lhs, rhs) == (1, 1)
    z1, z2 = Fraction(7, 2), Fraction(-1, 3)
    lhs, rhs = vandermonde_identity([z1, z2])
    assert lhs == z2 - z1
    assert rhs == z1 - z2


def test_vandermonde_identity_sign_randomized():
    rng = np.random.default_rng(8)
    for m in range(1, 6):
        for _ in range(40):
            z = [Fraction(int(rng.integers(-20, 21)), int(rng.integers(1, 9))) for _ in range(m)]
            lhs, rhs = vandermonde_identity(z)
            assert abs(lhs) == abs(rhs)
            assert lhs == (-1) ** (m * (m - 1) // 2) * rhs


def test_dan_determinant():
    assert dan_determinant(Fraction(9, 7), 2) == 1
    assert dan_determinant(Fraction(5), 3) == 2
    assert dan_determinant(Fraction(0), 4) == 12
    assert dan_determinant(Fraction(7), 4) == 12
    rng = np.random.default_rng(13)
    for n in range(2, 7):
        expect = 1
        for k in range(1, n):
            expect *= factorial(k)
        for _ in range(20):
            a = Fraction(int(rng.integers(-30, 31)), int(rng.integers(1, 11)))
            assert dan_determinant(a, n) == expect


def test_cayley_invariance():
    for n in (1, 2, 3):
        res = cayley_invariance_check(n, RngStream(21), pairs=50)
        assert res["identity"] < 1e-10
        assert res["involution"] < 1e-12
        assert res["inverse"] < 1e-12


def test_cayley_base_point():
    # c(0) = -1 and ch(0) = 1, the degenerate instance of the identity
    x = np.zeros((2, 2), dtype=complex)
    c0 = (x + np.eye(2)) @ np.linalg.inv(x - np.eye(2))
    assert np.allclose(c0, -np.eye(2))
    assert abs(np.linalg.det(np.eye(2) - x)) == 1.0


def test_r_table_is_data():
    assert CAYLEY_JACOBIAN_EXPONENT["U_n"] == 0
    assert CAYLEY_JACOBIAN_EXPONENT["O_n"] == -1
    assert CAYLEY_JACOBIAN_EXPONENT["Sp_n"] == Fraction(1, 2)


def test_distribution_invariance():
    dev = distribution_invariance(HCParam.parse("2"), DualPair(1, 2), 100, RngStream(77))
    assert dev < 1e-9
    dev22 = distribution_invariance(
        HCParam.parse("3/2,1/2"), DualPair(2, 2), 50, RngStream(78)
    )
    assert dev22 < 1e-9
    # deterministic under a fixed seed
    again = distribution_invariance(HCParam.parse("2"), DualPair(1, 2), 100, RngStream(77))
    assert dev == again


def test_cw_identity():
    for l, lp in ((1, 1), (1, 2), (2, 2), (1, 3), (2, 4), (3, 3)):
        assert cw_identity_check(DualPair(l, lp))


def test_mc_report():
    rep = McReport.build(1.02, 1.0, 100, 3)
    assert rep.rel_error == pytest.approx(0.02)
    assert rep.to_json()["samples"] == 100


def test_mc_convergence_monitor():
    # 3-sigma monitor over a fixed seed family: at every sample count the
    # mean signed error is statistical noise, and the seed-family spread
    # shrinks when the sample count quadruples.
    import statistics

    def monitor(run, base):
        spreads = []
        for n in (base, 2 * base, 4 * base):
            errs = [run(seed, n) for seed in range(8)]
            sigma = statistics.stdev(errs)
            assert abs(statistics.mean(errs)) <= 3 * sigma / np.sqrt(8) + 1e-12
            spreads.append(sigma)
        assert spreads[2] < spreads[0]

    monitor(
        lambda s, n: cayley_volume_check(2, n, RngStream(s)).estimate - 8 * pi**3,
        100_000,
    )
    # exact moment for (l, c) = (2, 1) is 4
    monitor(
        lambda s, n: gaussian_vandermonde(2, 1, RngStream(s), samples=n)[1].estimate - 4.0,
        100_000,
    )


def test_cayley_volume_raw_coordinate_cross_check():
    # independent of the spectral tangent substitution: importance-sample
    # the raw orthonormal coordinates of u_2 with Cauchy proposals; the
    # weights are heavy-tailed, so only a loose agreement is demanded
    g = RngStream(17).generator()
    m = 400_000
    u = g.random((m, 4))
    x = np.tan(pi * (u - 0.5))
    q = (1.0 / (pi * (1.0 + x**2))).prod(axis=1)
    det = (1.0 - 1j * x[:, 0]) * (1.0 - 1j * x[:, 1]) + (x[:, 2] ** 2 + x[:, 3] ** 2) / 2.0
    est = float(np.mean(16.0 / np.abs(det) ** 4 / q))
    assert abs(est - 8 * pi**3) / (8 * pi**3) < 0.08
    # and the bounded estimator agrees with the same target far more tightly
    rep = cayley_volume_check(2, 400_000, RngStream(17))
    assert rep.rel_error < 0.01


def test_forrester_warnaar_integrand_positive():
    # the substituted integrand is sin^2 of the angle gap, so both
    # quadrature estimates must come out strictly positive
    assert forrester_warnaar_check(1).estimate > 0
    assert forrester_warnaar_check(2).estimate > 0


def test_run_suite_fast_subset():
    summary = run_suite(["forrester_warnaar", "dan_determinant", "cw_identity"], seed=0, samples=1000)
    assert summary["pass"]
    names = [c["name"] for c in summary["checks"]]
    assert "forrester_warnaar_n2" in names and "cw_identity_2_2" in names
    with pytest.raises(ValueError):
        run_suite(["nope"], seed=0, samples=10)
