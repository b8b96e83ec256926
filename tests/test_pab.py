"""The P_{a,b,2} family: frozen values, derivative/shift identities, Laguerre oracle."""

from fractions import Fraction
from math import factorial

import pytest

from conftest import derivative, laguerre, pab_minus2, pab_piecewise_eval, pab_value_at_zero, value_at
from howedual.exact import MultiPoly, rising
from howedual.pab import pab2

TWO_PI = 6.283185307179586


def P(*coeffs):
    """The one-variable polynomial sum_d coeffs[d] xi^d."""
    return MultiPoly(1, {(d,): c for d, c in enumerate(coeffs)})


def test_pab2_frozen_values():
    assert pab2(0, 1) == P(1)
    assert pab2(5, 0).is_zero()
    assert pab2(5, -3).is_zero()
    assert pab2(-2, 2) == P(-4, 4)  # 4 xi - 4
    assert pab2(-1, 2) == P(-1, 2)  # 2 xi - 1
    assert pab2(0, 2) == P(0, 1)  # xi


def test_pab2_term_by_term_oracle():
    # independent direct summation of the defining series
    for a in range(-12, 13):
        for b in range(-2, 41):
            coeffs = {}
            for k in range(b):
                coeffs[(b - 1 - k,)] = Fraction(
                    rising(a, k), factorial(k) * factorial(b - 1 - k)
                ) * Fraction(2) ** (-a - k)
            assert pab2(a, b) == MultiPoly(1, coeffs), (a, b)


def test_pab2_terms_are_nonzero_fractions():
    # pab2 builds its MultiPoly without the normalizing constructor, so check
    # the invariant where the rising factor vanishes: a <= 0, b > 1 - a
    for a in range(-10, 1):
        for b in range(2 - a, 16):
            for p in (pab2(a, b), pab_minus2(b, a)):
                assert len(p.terms) == 1 - a
                for (d,), c in p.terms.items():
                    assert type(d) is int and type(c) is Fraction and c != 0


def test_pab2_degree():
    for a in range(-6, 7):
        for b in range(1, 9):
            assert max(pab2(a, b).terms) == (b - 1,)


def test_pab_minus2_frozen_values():
    assert pab_minus2(1, 0) == P(1)
    assert pab_minus2(2, -1) == P(-1, -2)  # -2 xi - 1
    for b in range(-3, 4):
        assert pab_minus2(0, b).is_zero()


def test_piecewise_eval():
    assert pab_piecewise_eval(0, 1, 1.0) == pytest.approx(TWO_PI)
    assert pab_piecewise_eval(0, 1, -1.0) == 0.0
    assert pab_piecewise_eval(3, 4, 0.0) == 0.0
    # minus branch pulls in the swapped polynomial
    assert pab_piecewise_eval(2, -1, -1.0) == pytest.approx(TWO_PI * 1.0)  # -2(-1) - 1


def test_value_at_zero():
    assert pab_value_at_zero(0, 2) == 0
    assert pab_value_at_zero(-1, 1) == 2
    assert pab_value_at_zero(-2, 2) == -4
    with pytest.raises(ValueError):
        pab_value_at_zero(0, 0)


def test_value_at_zero_binomial_form():
    # for a <= 0 and a + b <= 1 the constant term is
    # (-1)^(b-1) 2^(1-a-b) binom(-a, -a-b+1)
    from math import comb

    for a in range(-8, 1):
        for b in range(1, 1 - a + 1):
            expect = Fraction((-1) ** (b - 1)) * Fraction(2) ** (1 - a - b) * comb(-a, -a - b + 1)
            assert pab_value_at_zero(a, b) == expect
            assert pab2(a, b).coefficient((0,)) == expect


def test_derivative_identity():
    # d/dxi P_{a,b,2} = P_{a,b-1,2}
    for a in range(-8, 9):
        for b in range(0, 9):
            assert derivative(pab2(a, b)) == pab2(a, b - 1)


def test_shift_identity():
    # P_{a,b,2}(xi) xi^c = 2^c (b+c-1)!/(b-1)! P_{a+c,b+c,2}(xi)
    # on b >= 1, a+b+c = 1, c >= 0
    for b in range(1, 9):
        for c in range(0, 9):
            a = 1 - b - c
            if abs(a) > 8:
                continue
            lhs = pab2(a, b) * MultiPoly(1, {(c,): 1})
            rhs = pab2(a + c, b + c) * (Fraction(2) ** c * Fraction(factorial(b + c - 1), factorial(b - 1)))
            assert lhs == rhs, (a, b, c)


def test_mirror_shift_identity():
    # P_{a,b,-2}(xi) (-xi)^c = 2^c (a+c-1)!/(a-1)! P_{a+c,b+c,-2}(xi)
    # on a >= 1, a+b+c = 1, c >= 0.  The two-power sits in the numerator:
    # substituting eta = -xi into the plus-branch shift identity forces it.
    for a in range(1, 9):
        for c in range(0, 9):
            b = 1 - a - c
            if abs(b) > 8:
                continue
            lhs = pab_minus2(a, b) * MultiPoly(1, {(c,): 1}) * Fraction((-1) ** c)
            rhs = pab_minus2(a + c, b + c) * Fraction(2**c * factorial(a + c - 1), factorial(a - 1))
            assert lhs == rhs, (a, b, c)


def test_laguerre_base_cases():
    assert laguerre(0, 5, 0.3) == 1
    assert laguerre(1, 5, 0.3) == pytest.approx(5 + 1 - 0.3)
    # exact on Fractions as well
    assert laguerre(1, -1, Fraction(1, 2)) == Fraction(-1, 2)


def test_pab2_equals_laguerre_exactly_on_sample():
    # P_{0,2,2}(xi) = -(1/2) L_1^{-1}(2 xi) = xi
    xi = Fraction(7, 3)
    assert value_at(pab2(0, 2), xi) == Fraction(-1, 2) * laguerre(1, -1, 2 * xi)


def test_laguerre_equivalence_grid():
    # P_{a,b,2}(xi) = (-1)^(b-1) 2^(-a-b+1) L_{b-1}^{-a-b+1}(2 xi)
    worst = 0.0
    for a in range(-6, 1):
        for b in range(1, 7):
            p = pab2(a, b)
            scale = (-1.0) ** (b - 1) * 2.0 ** (-a - b + 1)
            for i in range(-50, 51):
                xi = i / 10.0
                got = float(value_at(p, Fraction(i, 10)))
                ref = scale * laguerre(b - 1, -a - b + 1, 2 * xi)
                worst = max(worst, abs(got - ref))
    assert worst < 1e-9
