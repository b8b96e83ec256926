"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the -v test names double as the pass/fail report.  Tolerances and
runtime budgets are fixed here, not configurable.
"""

import time
from fractions import Fraction
from math import factorial

import numpy as np

from conftest import all_pairs, derivative, is_symmetric, laguerre, occurring_params, pab_minus2, value_at
from howedual.exact import MultiPoly, SymScalar
from howedual.intertwine import (
    distribution_G,
    distribution_Gprime,
    multiplicity_one_check,
    proportionality,
    value_at_zero_closed,
    value_at_zero_oracle,
    vol_unitary,
)
from howedual.pab import pab2
from howedual.reps import (
    DualPair,
    HCParam,
    correspond,
    correspond_back,
    delta_of,
    dim_piprime,
    dim_weyl,
    mysterious_factor,
    occurs_G,
    occurs_Gprime,
)
from howedual.verify import (
    RngStream,
    cayley_invariance_check,
    cayley_volume_check,
    cw_identity_check,
    dan_determinant,
    distribution_invariance,
    forrester_warnaar_check,
    gaussian_vandermonde,
    vandermonde_identity,
)


def _report(name: str, started: float, budget: float, detail: str = ""):
    elapsed = time.time() - started
    assert elapsed < budget, f"{name}: runtime {elapsed:.1f}s exceeds budget {budget}s"
    suffix = f" ({detail})" if detail else ""
    print(f"PASS {name}{suffix} [{elapsed:.1f}s]")


def test_criterion_1_polynomial_family_identities():
    t0 = time.time()
    # derivative identity, exact
    for a in range(-8, 9):
        for b in range(0, 9):
            assert derivative(pab2(a, b)) == pab2(a, b - 1)
    # shift identity and its mirror on all admissible |a|, b, c <= 8
    shift_cases = mirror_cases = 0
    for b in range(1, 9):
        for c in range(0, 9):
            a = 1 - b - c
            if abs(a) <= 8:
                lhs = pab2(a, b) * MultiPoly(1, {(c,): 1})
                rhs = pab2(a + c, b + c) * (
                    Fraction(2) ** c * Fraction(factorial(b + c - 1), factorial(b - 1))
                )
                assert lhs == rhs
                shift_cases += 1
    # mirror of the shift identity, with the two-power placement that the
    # shift identity itself forces: P_{a,b,-2}(xi) (-xi)^c =
    # 2^c (a+c-1)!/(a-1)! P_{a+c,b+c,-2}(xi)
    for a in range(1, 9):
        for c in range(0, 9):
            b = 1 - a - c
            if abs(b) <= 8:
                lhs = pab_minus2(a, b) * MultiPoly(1, {(c,): 1}) * Fraction((-1) ** c)
                rhs = pab_minus2(a + c, b + c) * Fraction(
                    2**c * factorial(a + c - 1), factorial(a - 1)
                )
                assert lhs == rhs
                mirror_cases += 1
    # Laguerre equivalence on the grid
    worst = 0.0
    for a in range(-6, 1):
        for b in range(1, 7):
            p = pab2(a, b)
            scale = (-1.0) ** (b - 1) * 2.0 ** (-a - b + 1)
            for i in range(-50, 51):
                got = float(value_at(p, Fraction(i, 10)))
                ref = scale * laguerre(b - 1, -a - b + 1, i / 5.0)
                worst = max(worst, abs(got - ref))
    assert worst < 1e-9
    _report(
        "criterion 1: polynomial-family identities",
        t0,
        5.0,
        f"{shift_cases} shift + {mirror_cases} mirror cases, laguerre max err {worst:.1e}",
    )


def test_criterion_2_correspondence_suite():
    t0 = time.time()
    count = 0
    for pair in all_pairs():
        scale = Fraction(1)
        for j in range(1, pair.l + 1):
            scale *= Fraction(factorial(pair.lp - j), factorial(pair.l - j))
        for mu in occurring_params(pair):
            count += 1
            mup = correspond(mu, pair)
            assert correspond_back(mup, pair) == mu
            assert occurs_Gprime(mup, pair)
            assert dim_piprime(mup, pair) == dim_weyl(mup)
            expected = Fraction(dim_weyl(mup), dim_weyl(mu)) * scale
            assert mysterious_factor(mu, pair) == SymScalar(expected)
    _report("criterion 2: correspondence suite", t0, 10.0, f"{count} occurring parameters")


def test_criterion_3_distribution_suite():
    t0 = time.time()
    count = 0
    for pair in all_pairs():
        sign = Fraction((-1) ** (pair.l * (pair.l - 1) // 2))
        d = None
        for mu in occurring_params(pair):
            count += 1
            dg = distribution_G(mu, pair)  # raises on nonzero remainder
            assert not dg.is_zero()
            assert is_symmetric(dg.poly)
            mup = correspond(mu, pair)
            dgp = distribution_Gprime(mup, pair)
            assert dg.poly == dgp.poly * sign
            ratio = proportionality(mu, mup, pair)
            assert abs(ratio) * abs(mysterious_factor(mu, pair)) == SymScalar(1)
        # nonzero iff occurring: bottom entry just below the lattice start
        d = delta_of(pair)
        low = HCParam([d - 1 + k for k in range(pair.l - 1, -1, -1)])
        assert not occurs_G(low, pair)
        assert distribution_G(low, pair).is_zero()
    _report("criterion 3: distribution suite", t0, 60.0, f"{count} occurring parameters")


def test_criterion_4_multiplicity_one():
    t0 = time.time()
    count = 0
    for pair in all_pairs():
        for mu in occurring_params(pair):
            count += 1
            closed = value_at_zero_closed(mu, pair)
            oracle = value_at_zero_oracle(mu, pair)
            mup = correspond(mu, pair)
            target = abs(SymScalar(2) * vol_unitary(pair.l) * dim_piprime(mup, pair))
            assert closed == oracle == target
            assert multiplicity_one_check(mu, pair)
    # spot instance: (1,2), mu = (2): |C_bullet| * 4 = 8 pi = 2 * 2 pi * 2
    spot = value_at_zero_closed(HCParam.parse("2"), DualPair(1, 2))
    assert spot == SymScalar(Fraction(8), 0, 1)
    _report("criterion 4: multiplicity one (three-way)", t0, 60.0, f"{count} parameters")


def test_criterion_5_constant_chain():
    t0 = time.time()
    assert vol_unitary(1) == SymScalar(Fraction(1), 2, 1)  # 2 pi
    assert vol_unitary(2) == SymScalar(Fraction(1), 6, 3)  # 8 pi^3
    for l, lp in ((1, 1), (1, 2), (2, 2)):
        assert cw_identity_check(DualPair(l, lp))
    _report("criterion 5: constant chain + integration-formula identity", t0, 10.0)


def test_criterion_6_numeric_integral_suite():
    t0 = time.time()
    r = forrester_warnaar_check(1)
    assert r.rel_error < 1e-12  # exact up to roundoff
    r = forrester_warnaar_check(2)
    assert r.rel_error < 1e-12
    r = cayley_volume_check(1, 0, RngStream(0))
    assert r.rel_error < 1e-6
    r = cayley_volume_check(2, 1_000_000, RngStream(0))
    assert r.rel_error < 0.02
    worst = 0.0
    for l in (1, 2, 3):
        for c in (0, 1, 2, 3):
            samples = {1: 1_000_000, 2: 4_000_000, 3: 40_000_000}[l]
            _, rep = gaussian_vandermonde(l, c, RngStream(0).shard(10 * l + c), samples)
            worst = max(worst, rep.rel_error)
            assert rep.rel_error < 0.01, (l, c, rep.rel_error)
    _report(
        "criterion 6: numeric integral suite",
        t0,
        120.0,
        f"worst gaussian-vandermonde rel err {worst:.2%}",
    )


def test_criterion_7_invariance():
    t0 = time.time()
    worst = 0.0
    count = 0
    for pair in all_pairs(max_l=2):
        for mu in occurring_params(pair):
            count += 1
            dev = distribution_invariance(mu, pair, RngStream(1234 + count))
            worst = max(worst, dev)
            assert dev < 1e-9, (mu, pair, dev)
    _report(
        "criterion 7: invariance under the group action",
        t0,
        120.0,
        f"{count} parameters x 100 trials, worst deviation {worst:.1e}",
    )


def test_criterion_8_vandermonde_variants():
    t0 = time.time()
    rng = np.random.default_rng(2718)
    for n in range(2, 7):
        expect = 1
        for k in range(1, n):
            expect *= factorial(k)
        for _ in range(20):
            a = Fraction(int(rng.integers(-40, 41)), int(rng.integers(1, 13)))
            assert dan_determinant(a, n) == expect
    for m in range(1, 6):
        for _ in range(100):
            z = [
                Fraction(int(rng.integers(-30, 31)), int(rng.integers(1, 11)))
                for _ in range(m)
            ]
            lhs, rhs = vandermonde_identity(z)
            assert abs(lhs) == abs(rhs)
            assert lhs == (-1) ** (m * (m - 1) // 2) * rhs
    _report("criterion 8: determinant identities", t0, 60.0)


def test_criterion_9_cayley_transform():
    t0 = time.time()
    for n in (1, 2, 3):
        res = cayley_invariance_check(n, RngStream(31 + n))
        assert res["identity"] < 1e-10, res
        assert res["involution"] < 1e-12, res
        assert res["inverse"] < 1e-12, res
    _report("criterion 9: Cayley-transform identities", t0, 30.0)
