"""Numeric oracles: Haar sampling, the integral checks, determinant identities."""

from fractions import Fraction
from itertools import combinations
from math import factorial, fsum, pi, prod

import numpy as np
import pytest

from howedual import verify
from howedual.exact import MultiPoly, rising
from howedual.reps import DualPair, HCParam
from howedual.verify import (
    McReport,
    RngStream,
    _haar,
    block_layout,
    blocked_mean,
    blocked_sums,
    cayley_invariance_check,
    cayley_volume_check,
    cw_identity_check,
    dan_determinant,
    distribution_invariance,
    forrester_warnaar_check,
    gaussian_vandermonde,
    gaussian_vandermonde_double_sum,
    gaussian_vandermonde_exact,
    run_suite,
    vandermonde_identity,
)


def test_rng_stream_determinism():
    a = RngStream(42).generator().random(5)
    b = RngStream(42).generator().random(5)
    assert np.array_equal(a, b)
    # counter matters
    c = RngStream(42, 1).generator().random(5)
    assert not np.array_equal(a, c)


def test_rng_streams_are_keyed_by_seed_and_counter():
    # a key always gives the same stream, and the first 128 bits differ
    # across 1,000 seeds, 1,000 counters and 1,024 nested shards
    streams = (
        [RngStream(s) for s in range(1000)]
        + [RngStream(0, k) for k in range(1, 1001)]
        + [RngStream(7).shard(i).shard(j) for i in range(1, 33) for j in range(1, 33)]
        + [RngStream(2**128 - 1, (2**40 + 1) * 2**40)]
    )
    assert len(set(streams)) == len(streams)
    firsts = {s.generator().bit_generator.random_raw(2).tobytes() for s in streams}
    assert len(firsts) == len(streams)
    for s in streams[::101]:
        assert np.array_equal(s.generator().random(1000), s.generator().random(1000))


def test_gamma_sampler_matches_the_gamma_moments():
    # E[y^k] = (c+1)_k for y ~ Gamma(c+1); over 2 M draws each of the first
    # four moments lies within 5 sigma, sigma^2 = ((c+1)_2k - (c+1)_k^2) / n
    n, chunk = 2_000_000, 1 << 18
    for c in range(4):
        g = RngStream(29).shard(c).generator()
        sums = [[] for _ in range(4)]
        for start in range(0, n, chunk):
            y = -verify._log_uniform_product(g, c, min(chunk, n - start))
            power = np.ones_like(y)
            for k in range(4):
                power *= y
                sums[k].append(float(np.sum(power)))
        for k in range(1, 5):
            mean = rising(c + 1, k)
            sigma = ((rising(c + 1, 2 * k) - mean**2) / n) ** 0.5
            assert abs(fsum(sums[k - 1]) / n - mean) <= 5 * sigma, (c, k)


def _uniforms(g, m):
    return g.random(m)


def _block_sum(rng, i, m, values):
    """One block's sum with all of its values drawn in one call."""
    return float(np.sum(values(rng.shard(i).generator(), m)))


def test_blocked_sums_shard_merge():
    n = 400_000
    full = blocked_sums(RngStream(3), n, _uniforms)
    layout = block_layout(n)
    worker_a = [_block_sum(RngStream(3), i, m, _uniforms) for i, m in layout[:2]]
    worker_b = [_block_sum(RngStream(3), i, m, _uniforms) for i, m in layout[2:]]
    assert worker_a + worker_b == full
    # fsum is exactly rounded, so the merge order cannot change the mean
    assert fsum(worker_b + worker_a) / n == blocked_mean(RngStream(3), n, _uniforms)


def test_blocked_sums_worker_count_independent(monkeypatch):
    n = 1_000_000
    several = blocked_sums(RngStream(3), n, _uniforms)
    monkeypatch.setattr(verify, "_available_cpus", lambda: 8)
    assert blocked_sums(RngStream(3), n, _uniforms) == several
    monkeypatch.setattr(verify, "_available_cpus", lambda: 1)
    assert blocked_sums(RngStream(3), n, _uniforms) == several


def test_blocked_sums_propagates_errors():
    def values(g, m):
        if m < 8192:  # the last, partial chunk of the last block
            raise RuntimeError("block failed")
        return g.random(m)

    with pytest.raises(RuntimeError, match="block failed"):
        blocked_sums(RngStream(3), 400_000, values)


def test_blocked_mean_needs_samples():
    with pytest.raises(ValueError):
        blocked_mean(RngStream(0), 0, lambda g, m: np.zeros(m))
    with pytest.raises(ValueError):
        gaussian_vandermonde(1, 0, RngStream(0), samples=-5)


def test_shards_nest():
    stride = verify._SHARD_STRIDE
    assert RngStream(0).shard(5) == RngStream(0, 5 * stride)
    # block 1 of shard 130 is not block 0 of shard 131
    assert RngStream(0).shard(130).shard(1) != RngStream(0).shard(131).shard(0)
    assert RngStream(0).shard(130).shard(1).counter == (130 * stride + 1) * stride


def test_run_suite_generators_never_share_a_philox_position(monkeypatch):
    # every generator run_suite creates starts at least one shard stride
    # from every other one; at 20 000 samples each l = 3
    # Gaussian-Vandermonde case runs 7 blocks, so a block index added to a
    # neighbouring case's offset would land on that case's blocks
    made = []
    generator = RngStream.generator

    def recording(self):
        made.append((self.seed, self.counter))
        return generator(self)

    monkeypatch.setattr(RngStream, "generator", recording)
    run_suite(["all"], 4, 20_000)  # too few samples for the gates to pass
    positions = sorted(made)
    # cayley_volume_n2's block, the blocks of the l = 1, 2, 3 cases for four
    # c each, the two determinant suites, three Cayley-invariance and two
    # distribution-invariance checks
    assert len(positions) == 1 + 4 * (1 + 1 + 7) + 2 + 3 + 2
    for (seed_a, a), (seed_b, b) in zip(positions, positions[1:]):
        assert seed_a == seed_b == 4
        assert b - a >= verify._SHARD_STRIDE


def _serial_mean(rng, samples, values):
    return fsum(_block_sum(rng, i, m, values) for i, m in block_layout(samples)) / samples


def _gaussian_vandermonde_one_shot(l, c, rng, samples):
    """The estimate with every block drawn in one call and no threads: one
    Gamma(c+1) value per row, -log of the product of 1 - u over a row of c+1
    uniforms, q evaluated by numpy's Horner from the reference coefficients;
    at l = 1, q = 1 and nothing is drawn."""
    q = _given_one(l, c)

    def values(g, m):
        if l == 1:
            return np.ones(m)
        return np.polyval(q[::-1], -np.log(np.prod(1.0 - g.random((m, c + 1)), axis=1)))

    return _serial_mean(rng, samples, values) * float(factorial(c)) ** l


def _cayley_volume_one_shot(rng, samples):
    """The n = 2 estimate with every block drawn in one call and no threads."""

    def values(g, m):
        u = g.random((m, 4)) - 0.5
        mean = (u[:, 0] + u[:, 1]) / 2.0
        half_gap = np.sqrt(((u[:, 0] - u[:, 1]) / 2.0) ** 2 + u[:, 2] ** 2 + u[:, 3] ** 2)
        inside = (np.abs(mean) + half_gap) < 0.5
        return np.where(inside, 16.0 * np.sinc(2.0 * half_gap) ** 2, 0.0)

    return _serial_mean(rng, samples, values) * 2.0 * pi**4


def test_chunked_threaded_estimates_are_bit_identical():
    # 300 000 samples: two full blocks and a partial one that ends in a
    # partial chunk
    n = 300_000
    assert [m for _, m in block_layout(n)][-1] % verify._CHUNK != 0
    for l in (1, 2, 3):
        for c in range(4):
            _, rep = gaussian_vandermonde(l, c, RngStream(11), samples=n)
            assert rep.estimate == _gaussian_vandermonde_one_shot(l, c, RngStream(11), n)
    for seed in (0, 5):
        rep = cayley_volume_check(2, n, RngStream(seed))
        assert rep.estimate == _cayley_volume_one_shot(RngStream(seed), n)


def test_haar_unitary_properties():
    rng = RngStream(7)
    for n in (1, 2, 3, 4):
        u = _haar(rng.shard(n).generator(), n, 100)
        res = np.max(np.abs(u @ u.conj().swapaxes(-1, -2) - np.eye(n)))
        assert res < 1e-12
        assert np.max(np.abs(np.abs(np.linalg.det(u)) - 1)) < 1e-12


def test_haar_unitary_first_entry_moment():
    # E |U_11|^2 = 1/n for Haar measure
    for n in (2, 3):
        u = _haar(RngStream(100 + n).generator(), n, 100_000)
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
    assert r2.rel_error < 1e-12


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


def _variables(n):
    return [MultiPoly(n, {tuple(int(i == j) for i in range(n)): 1}) for j in range(n)]


def _vandermonde_squared(n):
    """prod_{j<k} (y_j - y_k)^2 in n variables."""
    v = MultiPoly(n, {(0,) * n: 1})
    for a, b in combinations(_variables(n), 2):
        v = v * (a - b) * (a - b)
    return v


def _gamma_mean(poly, c):
    """E[poly(y)] for independent y_j ~ Gamma(c+1), from E[y^k] = (c+1)_k."""
    return sum(coef * prod(rising(c + 1, e) for e in exps) for exps, coef in poly.terms.items())


def _integrated_out(l, c, kept):
    """prod_{j<k}(y_j - y_k)^2 over l coordinates with all but the first ``kept``
    integrated out term by term (Y^k -> (c+1)_k): a polynomial in ``kept``."""
    full = _vandermonde_squared(l)
    terms = {}
    for exps, coef in full.terms.items():
        weight = prod(rising(c + 1, e) for e in exps[kept:])
        terms[exps[:kept]] = terms.get(exps[:kept], 0) + coef * weight
    return MultiPoly(kept, terms)


def _given_one(l, c):
    """The float coefficients q_0..q_{2l-2} of the reference one-draw integrand."""
    poly = _integrated_out(l, c, 1)
    return [float(poly.coefficient((k,))) for k in range(2 * l - 1)]


def test_conditional_integrand_matches_the_exact_expectation():
    # dyadic points are exact floats, so only the integrand's arithmetic is
    # compared; zero and huge values included
    points = [0.0, 0.125, 1.0, 1.5, 2.5, 3.0, 9.75, 12.0, 1000.25, 2.0**30, 2.0**60]
    y = np.array(points)
    for l in range(1, 5):
        for c in range(4):
            poly = _integrated_out(l, c, 1)
            q = verify._vandermonde_given_one(l, c)
            assert q == [poly.coefficient((k,)) for k in range(2 * l - 1)], (l, c)
            got = verify._horner([float(a) for a in q], y)
            for v, value in zip(points, got):
                z = Fraction(v)
                want = sum(coef * z**d for (d,), coef in poly.terms.items())
                assert want > 0
                assert abs(value - want) <= 1e-12 * want, (l, c, v)


def test_horner_on_the_negated_draw_is_bit_identical():
    # negation is exact and rounding to nearest is symmetric, so Horner with
    # coefficients (-1)^k q_k at t is Horner with q at -t bit for bit, and
    # both are numpy's polyval; seeded points of both signs, zeros,
    # subnormals and points near 1e300, where the powers overflow
    g = RngStream(41).generator()
    special = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, 1e300, -1e300, 3.5e299, -7.25e299]
    t = np.concatenate([-8.0 * g.standard_exponential(500), 100.0 * g.standard_normal(500), special])
    with np.errstate(over="ignore"):
        for l in range(1, 5):
            for c in range(4):
                q = [float(a) for a in verify._vandermonde_given_one(l, c)]
                q_neg = [-a if k % 2 else a for k, a in enumerate(q)]
                got = verify._horner(q_neg, t)
                assert got.tobytes() == verify._horner(q, -t).tobytes(), (l, c)
                assert got.tobytes() == np.polyval(q[::-1], -t).tobytes(), (l, c)


def test_conditional_estimator_is_unbiased():
    # integrating coordinates out keeps the mean: E over the drawn one of
    # the one-draw polynomial, and over the l - 1 drawn ones of the
    # one-coordinate-out polynomial, is the whole moment over c!^l
    for l in range(1, 5):
        for c in range(4):
            want = Fraction(gaussian_vandermonde_exact(l, c), factorial(c) ** l)
            assert _gamma_mean(_integrated_out(l, c, 1), c) == want
            assert _gamma_mean(_integrated_out(l, c, l - 1), c) == want


def test_conditional_estimator_variance_at_the_suite_cases():
    # exact per-sample variances from Gamma moments: at every run_suite case
    # the one-draw estimator's is at most that of integrating out only the
    # last coordinate, which is at most 0.40 of the plain one's, which draws
    # all l coordinates
    for l in (1, 2, 3):
        for c in range(4):
            plain = _vandermonde_squared(l)
            last_out = _integrated_out(l, c, l - 1)
            one_draw = _integrated_out(l, c, 1)
            mean = _gamma_mean(plain, c)
            var_plain = _gamma_mean(plain * plain, c) - mean**2
            var_last_out = _gamma_mean(last_out * last_out, c) - mean**2
            var_one_draw = _gamma_mean(one_draw * one_draw, c) - mean**2
            assert 0 <= var_one_draw <= var_last_out <= Fraction(2, 5) * var_plain, (l, c)
    # the relative std quoted for the budget of the worst case, (l, c) = (3, 0)
    one_draw = _integrated_out(3, 0, 1)
    mean = _gamma_mean(one_draw, 0)
    assert 6.32 < float((_gamma_mean(one_draw * one_draw, 0) - mean**2) / mean**2) ** 0.5 < 6.33


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
        res = cayley_invariance_check(n, RngStream(21))
        assert res["identity"] < 1e-10
        assert res["involution"] < 1e-12
        assert res["inverse"] < 1e-12


def test_cayley_base_point():
    # c(0) = -1 and ch(0) = 1, the degenerate instance of the identity
    x = np.zeros((2, 2), dtype=complex)
    c0 = (x + np.eye(2)) @ np.linalg.inv(x - np.eye(2))
    assert np.allclose(c0, -np.eye(2))
    assert abs(np.linalg.det(np.eye(2) - x)) == 1.0


def test_distribution_invariance():
    dev = distribution_invariance(HCParam.parse("2"), DualPair(1, 2), RngStream(77))
    assert dev < 1e-9
    dev22 = distribution_invariance(HCParam.parse("3/2,1/2"), DualPair(2, 2), RngStream(78))
    assert dev22 < 1e-9
    # deterministic under a fixed seed
    again = distribution_invariance(HCParam.parse("2"), DualPair(1, 2), RngStream(77))
    assert dev == again


def test_cw_identity():
    for l, lp in ((1, 1), (1, 2), (2, 2), (1, 3), (2, 4), (3, 3)):
        assert cw_identity_check(DualPair(l, lp))


def test_mc_report():
    rep = McReport.build(1.02, 1.0, 100, 3)
    assert rep.rel_error == pytest.approx(0.02)
    payload = rep.to_json()
    assert list(payload) == ["estimate", "target", "rel_error", "samples", "seed"]
    assert payload == {"estimate": 1.02, "target": 1.0, "rel_error": rep.rel_error, "samples": 100, "seed": 3}


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


def test_run_suite_rejects_unknown_next_to_all():
    with pytest.raises(ValueError, match="nope"):
        run_suite(["all", "nope"], seed=0, samples=10)
