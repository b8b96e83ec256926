"""The polynomial engine, distribution assembly, constants, and value at zero."""

import hashlib
import json
import random
import sys
import warnings
from fractions import Fraction
from itertools import permutations
from math import copysign, factorial, isclose, isfinite, isnan, log, pi
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    all_pairs,
    eval_distribution_reference,
    eval_float_reference,
    is_symmetric,
    occurring_params,
    permuted,
)
from howedual import intertwine
from howedual.exact import MultiPoly, SymScalar, det
from howedual.intertwine import (
    DistributionData,
    _divided_difference,
    _pipeline,
    _value_prefactor,
    constants,
    distribution_G,
    distribution_Gprime,
    divide_by_vandermonde,
    eigvalsh_jacobi,
    eval_distribution,
    eval_on_W,
    multiplicity_one_check,
    p_mu_product,
    perm_sign,
    proportionality,
    skew_symmetrize,
    value_at_zero_closed,
    value_at_zero_oracle,
    vol_unitary,
)
from howedual.pab import pab2
from howedual.reps import DualPair, HCParam, ab_params, correspond, delta_of, dim_piprime, mysterious_factor


def H(text):
    return HCParam.parse(text)


def P(nvars, terms):
    return MultiPoly(nvars, {tuple(e): Fraction(c) for e, c in terms.items()})


# -- references written out in full ------------------------------------------


def plain_skew_sum(p):
    """sum_s sgn(s) (p with variable i relabeled s(i)), one permutation at a time."""
    terms = {}
    for perm in permutations(range(p.nvars)):
        sign = perm_sign(perm)
        for e, c in permuted(p, perm).terms.items():
            terms[e] = terms.get(e, 0) + sign * c
    return MultiPoly(p.nvars, terms)


def signed_vandermonde(l):
    """sum_s sgn(s) prod_j z_j^(s(j)-1); this is (-1)^(l(l-1)/2) times
    prod_{j<k} (z_j - z_k)."""
    return MultiPoly(l, {perm: Fraction(perm_sign(perm)) for perm in permutations(range(l))})


def vandermonde_derivative_at_zero(p):
    """Apply sum_s sgn(s) d_1^(s(1)-1) ... d_l^(s(l)-1) and evaluate at 0.

    On a product of the form ``signed_vandermonde(l) * f`` this returns
    (prod_{k=1}^{l} k!) * f(0) exactly.
    """
    out = Fraction(0)
    for perm in permutations(range(p.nvars)):
        c = p.terms.get(perm)
        if c is None:
            continue
        fac = 1
        for d in perm:
            fac *= factorial(d)
        out += perm_sign(perm) * fac * c
    return out


def _is_exact(poly):
    return all(type(c) is Fraction and c != 0 for c in poly.terms.values())


# -- polynomial engine -------------------------------------------------------


def test_p_mu_product_frozen():
    assert p_mu_product(H("2"), DualPair(1, 2)) == P(1, {(1,): 4, (0,): -4})
    assert p_mu_product(H("3/2,1/2"), DualPair(2, 2)) == P(2, {(1, 0): 2, (0, 0): -1})
    # some b_j <= 0 kills the product
    assert p_mu_product(H("0"), DualPair(1, 2)).is_zero()


def test_skew_symmetrize():
    one_var = P(1, {(1,): 2, (0,): -1})
    assert skew_symmetrize(one_var) == one_var  # l = 1 is the identity
    two = P(2, {(1, 0): 2, (0, 0): -1})
    assert skew_symmetrize(two) == P(2, {(1, 0): 2, (0, 1): -2})
    # symmetric input cancels
    sym = P(2, {(1, 1): 3, (0, 0): 5})
    assert skew_symmetrize(sym).is_zero()


def test_skew_symmetrize_sign_under_relabeling():
    rng = random.Random(3)
    for _ in range(30):
        nv = rng.randint(2, 3)
        poly = MultiPoly(
            nv,
            {
                tuple(rng.randint(0, 3) for _ in range(nv)): Fraction(rng.randint(-5, 5))
                for _ in range(4)
            },
        )
        perm = list(range(nv))
        rng.shuffle(perm)
        lhs = skew_symmetrize(permuted(poly, perm))
        rhs = skew_symmetrize(poly) * perm_sign(tuple(perm))
        assert lhs == rhs


def test_skew_symmetrize_matches_plain_sum():
    # non-integer rationals, repeated exponents, and inputs that cancel fully
    rng = random.Random(23)
    for nv in (1, 2, 3, 4):
        for _ in range(25):
            f = MultiPoly(
                nv,
                {
                    tuple(rng.randint(0, 3) for _ in range(nv)): Fraction(
                        rng.randint(-6, 6), rng.randint(1, 7)
                    )
                    for _ in range(rng.randint(1, 8))
                },
            )
            assert skew_symmetrize(f) == plain_skew_sum(f)
            if nv > 1:
                swap = [1, 0] + list(range(2, nv))
                cancels = f + permuted(f, swap)
                assert skew_symmetrize(cancels).is_zero() and plain_skew_sum(cancels).is_zero()
            repeated = MultiPoly(nv, {(d,) * nv: c for d, c in enumerate(f.terms.values())})
            assert skew_symmetrize(repeated) == plain_skew_sum(repeated)


def test_skew_symmetrize_matches_plain_sum_on_products():
    for pair in all_pairs():
        l = pair.l
        for mu in occurring_params(pair):
            f = p_mu_product(mu, pair)
            # the product in the order of multiplying out factor by factor
            plain = P(l, {(0,) * l: 1})
            for j, (a, b) in enumerate(ab_params(mu, pair)):
                terms = pab2(a, b).terms.items()
                plain = plain * MultiPoly(l, {(0,) * j + e + (0,) * (l - 1 - j): c for e, c in terms})
            assert list(f.terms.items()) == list(plain.terms.items())
            assert skew_symmetrize(f) == plain_skew_sum(f)


def test_exact_kernels_return_nonzero_fractions():
    # proportionality divides coefficients, which stays exact only on Fractions
    for pair in all_pairs():
        for mu in occurring_params(pair):
            skew = skew_symmetrize(p_mu_product(mu, pair))
            assert _is_exact(skew)
            assert _is_exact(divide_by_vandermonde(skew))
            assert _is_exact(distribution_G(mu, pair).poly)


def test_l5_distributions_match_the_pinned_digests():
    # (5, 6) at mu_j = delta + 2(l-1-j) + 3, past the l <= 4 of the benchmark's
    # exact sweep; the digests were taken from the Fraction-coefficient MultiPoly
    pinned = json.loads((Path(__file__).parent / "data" / "l5_digests.json").read_text())
    pair, mu = DualPair(*pinned["pair"]), HCParam(pinned["mu"])
    mup = correspond(mu, pair)
    assert mup.to_json() == pinned["mu_prime"]
    for name, build, param in (("distribution_G", distribution_G, mu), ("distribution_Gprime", distribution_Gprime, mup)):
        payload = build(param, pair).to_json()
        assert len(payload["poly"]) == pinned["monomials"]
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == pinned[name]


def test_size_guard(monkeypatch):
    pair = DualPair(3, 4)
    mu = H("8,6,4")  # b = 8, 6, 4: 192 product terms
    skew = skew_symmetrize(p_mu_product(mu, pair))  # 288 = 3! |q+| terms
    monkeypatch.setattr(intertwine, "MAX_TERMS", 191)
    with pytest.raises(ValueError, match="product"):
        _pipeline(ab_params(mu, pair), 3)
    with pytest.raises(ValueError, match="product"):
        distribution_G(mu, pair)
    # refuses the skew sum but not the product
    monkeypatch.setattr(intertwine, "MAX_TERMS", len(skew.terms) - 1)
    with pytest.raises(ValueError, match="skew sum"):
        distribution_G(mu, pair)
    monkeypatch.setattr(intertwine, "MAX_TERMS", len(skew.terms))
    assert not distribution_G(mu, pair).is_zero()


def test_size_guard_refuses_exactly_what_str_cannot_print():
    # at the interpreter's smallest digit limit the top coefficient
    # 2^(-a) / (b - 1)! outgrows str between these two parameters
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        cases = [(DualPair(1, 2), H("352"), H("353")), (DualPair(1, 1), H("703/2"), H("705/2"))]
        for pair, fits, too_long in cases:
            json.dumps(distribution_G(fits, pair).to_json())
            json.dumps(distribution_Gprime(correspond(fits, pair), pair).to_json())
            with pytest.raises(ValueError, match="past the print limit of 640"):
                distribution_G(too_long, pair)
            with pytest.raises(ValueError, match="past the print limit of 640"):
                distribution_Gprime(correspond(too_long, pair), pair)
            unguarded = divide_by_vandermonde(skew_symmetrize(p_mu_product(too_long, pair)))
            with pytest.raises(ValueError, match="integer string conversion"):
                unguarded.to_json()
    finally:
        sys.set_int_max_str_digits(limit)


def test_divide_by_vandermonde():
    q = P(2, {(1, 0): 2, (0, 1): -2})  # 2 z1 - 2 z2
    assert divide_by_vandermonde(q) == P(2, {(0, 0): 2})
    # l = 1: empty product, identity
    p1 = P(1, {(3,): 7})
    assert divide_by_vandermonde(p1) == p1
    # symmetric nonzero input is not divisible
    with pytest.raises(ValueError):
        divide_by_vandermonde(P(2, {(1, 1): 1}))
    # z1 - z2 in three variables is skew in (z1, z2) only
    with pytest.raises(ValueError):
        divide_by_vandermonde(P(3, {(1, 0, 0): 1, (0, 1, 0): -1}))
    # z1 (z1 - z2) is divisible but not skew-symmetric, so it is refused
    with pytest.raises(ValueError):
        divide_by_vandermonde(P(2, {(2, 0): 1, (1, 1): -1}))


def test_divided_difference_times_linear_factor():
    # a term whose coefficient cancels is dropped: d_1 (z1^2 + z2^2) = 0
    assert _divided_difference({(2, 0): 1, (0, 2): 1}, 0) == {}
    # (z_i - z_{i+1}) * d_i f == f - s_i f, checked by multiplication, on the
    # Fraction dict and on the integer numerators the pipeline runs on
    rng = random.Random(17)
    for nv in (2, 3, 4):
        for _ in range(15):
            f = MultiPoly(
                nv,
                {
                    tuple(rng.randint(0, 4) for _ in range(nv)): Fraction(
                        rng.randint(-6, 6), rng.randint(1, 3)
                    )
                    for _ in range(5)
                },
            )
            numerators = {e: int(c * 6) for e, c in f.terms.items()}
            for i in range(nv - 1):
                swap = list(range(nv))
                swap[i], swap[i + 1] = i + 1, i
                z_i = tuple(int(k == i) for k in range(nv))
                z_next = tuple(int(k == i + 1) for k in range(nv))
                linear = P(nv, {z_i: 1, z_next: -1})
                on_fractions = _divided_difference(f.terms, i)
                assert linear * MultiPoly(nv, on_fractions) == f - permuted(f, swap)
                on_ints = _divided_difference(numerators, i)
                assert all(type(c) is int and c != 0 for c in on_ints.values())
                assert linear * MultiPoly(nv, on_ints) == (f - permuted(f, swap)) * 6


def test_divide_times_vandermonde_round_trip():
    rng = random.Random(9)
    inputs = [
        MultiPoly(
            nv,
            {
                tuple(rng.randint(0, 2) for _ in range(nv)): Fraction(rng.randint(-4, 4))
                for _ in range(3)
            },
        )
        for nv in (rng.randint(2, 3) for _ in range(25))
    ]
    # the products the distributions are built from
    inputs += [p_mu_product(mu, pair) for pair in all_pairs() for mu in occurring_params(pair)]
    for f in inputs:
        nv = f.nvars
        skew = skew_symmetrize(f)
        if skew.is_zero():
            continue
        quotient = divide_by_vandermonde(skew)
        vdm = signed_vandermonde(nv) * Fraction((-1) ** (nv * (nv - 1) // 2))
        assert quotient * vdm == skew
        assert is_symmetric(quotient)


def test_vandermonde_derivative_at_zero_reproduces_value():
    # applying the operator to vdm * f at 0 gives (prod k!) f(0)
    rng = random.Random(5)
    for nv in (1, 2, 3):
        fac = 1
        for k in range(1, nv + 1):
            fac *= factorial(k)
        for _ in range(20):
            f = MultiPoly(
                nv,
                {
                    tuple(rng.randint(0, 2) for _ in range(nv)): Fraction(rng.randint(-6, 6))
                    for _ in range(4)
                },
            )
            prod = signed_vandermonde(nv) * f
            assert vandermonde_derivative_at_zero(prod) == fac * f.coefficient((0,) * nv)


# -- constants ----------------------------------------------------------------


def test_volumes():
    assert vol_unitary(1) == SymScalar(Fraction(1), 2, 1)  # 2 pi
    assert vol_unitary(2) == SymScalar(Fraction(1), 6, 3)  # 8 pi^3
    assert vol_unitary(3) == SymScalar(Fraction(1, 2), 12, 6)  # (2 pi)^6 / 2


def test_constants_frozen():
    c11 = constants(DualPair(1, 1))
    assert c11["C_W"] == SymScalar(Fraction(1), 3)  # 2^(3/2)
    assert abs(c11["C_bullet"]) == SymScalar(Fraction(1), 4, 1)  # 4 pi

    c12 = constants(DualPair(1, 2))
    assert c12["C_W"] == SymScalar(Fraction(1), 5)
    assert abs(c12["C_bullet"]) == SymScalar(Fraction(1), 2, 1)  # 2 pi
    assert c12["vol_H"] == SymScalar(Fraction(1), 2, 1)
    assert c12["C_z"] == SymScalar(Fraction(1), 2, 1)  # l = 1: no i-power
    assert c12["C_h1"] == SymScalar(Fraction(-1), 0, 0, 1)  # -i

    c22 = constants(DualPair(2, 2))
    assert abs(c22["C_bullet"]) == SymScalar(Fraction(1), 4, 2)  # 4 pi^2
    assert abs(c22["C_1"]) == SymScalar(Fraction(1), 0, 1)  # pi
    assert abs(c22["C_2"]) == SymScalar(Fraction(16), 0, -1)  # 16 / pi
    assert c22["c_weyl"] == SymScalar(Fraction(1), 2, 1)  # 2 pi

    c23 = constants(DualPair(2, 3))
    assert abs(c23["C_bullet"]) == SymScalar(Fraction(1), 0, 2)  # pi^2


def test_vol_s_h1():
    # 2^(l/2) (2 pi)^((l'-l)(l'-l+1)/2 + l) / prod_{j<l'-l} j!
    c = constants(DualPair(1, 2))
    assert c["vol_S_h1"] == SymScalar(Fraction(1), 5, 2)  # 2^(1/2) (2 pi)^2
    c = constants(DualPair(2, 2))
    assert c["vol_S_h1"] == SymScalar(Fraction(1), 6, 2)  # 2 (2 pi)^2


def test_constants_pinned():
    # all eleven constants at 1 <= l <= 4, l <= l' <= l + 4
    pinned = json.loads((Path(__file__).parent / "data" / "constants.json").read_text())
    assert len(pinned) == 20
    for key, values in pinned.items():
        l, lp = map(int, key.split(","))
        assert {k: v.to_json() for k, v in constants(DualPair(l, lp)).items()} == values


def test_constant_chain_closed_forms():
    # the factorial products written out, for l <= 8 and l' - l < 8
    def factorial_product(n):
        out = 1
        for j in range(1, n):
            out *= factorial(j)
        return out

    for l in range(1, 9):
        half = l * (l - 1) // 2
        for lp in range(l, l + 8):
            pair = DualPair(l, lp)
            cons = constants(pair)
            c = lp - l
            m = c * (c + 1) // 2 + l
            g = l * (l + 1) // 2
            assert cons["vol_G"] == SymScalar(Fraction(1, factorial_product(l)), 2 * g, g)
            assert cons["vol_S_h1"] == SymScalar(Fraction(1, factorial_product(c)), l + 2 * m, m)
            assert cons["c_weyl"] == SymScalar(Fraction(1, factorial_product(l)), 2 * half, half)
            c_2 = SymScalar(Fraction(1), 2 * l + l * (2 * lp + 1), l) / cons["vol_G"]
            assert cons["C_2"] == c_2
            assert cons["C_bullet"] == (
                SymScalar(Fraction(2), 2 * l, l) * cons["C_1"] * c_2 / cons["C_W"]
            )
            assert _value_prefactor(pair) == (
                abs(cons["C_bullet"])
                * SymScalar.two_pi_power(half)
                * Fraction(factorial(l), factorial_product(l + 1))
            )


# -- distributions ------------------------------------------------------------


def test_distribution_G_frozen():
    d = distribution_G(H("2"), DualPair(1, 2))
    assert d.poly == P(1, {(1,): 4, (0,): -4})
    assert abs(d.prefactor) == SymScalar(Fraction(1), 2, 1)  # 2 pi
    # wrong parity is rejected
    with pytest.raises(ValueError):
        distribution_G(H("1/2"), DualPair(1, 2))
    # non-occurring integral parameter gives the zero distribution
    z = distribution_G(H("0"), DualPair(1, 2))
    assert z.is_zero()
    assert z.to_json() == {"zero": True}


def test_distribution_Gprime_frozen():
    d = distribution_Gprime(H("0,-2"), DualPair(1, 2))
    assert d.poly == P(1, {(1,): 4, (0,): -4})
    # prefactor carries the extra factorial-ratio factor 2
    assert abs(d.prefactor) == SymScalar(Fraction(1), 4, 1)  # 4 pi
    d22 = distribution_Gprime(H("-1/2,-3/2"), DualPair(2, 2))
    assert d22.poly == distribution_G(H("3/2,1/2"), DualPair(2, 2)).poly * Fraction(-1)
    assert distribution_Gprime(H("1/2,-3/2"), DualPair(1, 2)).is_zero()  # wrong parity
    assert distribution_Gprime(H("1,-2"), DualPair(1, 2)).is_zero()


def test_distribution_json():
    d = distribution_G(H("2"), DualPair(1, 2))
    js = d.to_json()
    assert js["poly"] == [{"exp": [1], "coeff": "4"}, {"exp": [0], "coeff": "-4"}]
    assert js["gaussian"] == "exp(-sum z_j)"
    assert js["variables"] == "z_j = 2*pi*y_j"
    assert js["prefactor"]["pi_pow"] == 1


def test_proportionality_frozen():
    r = proportionality(H("2"), H("0,-2"), DualPair(1, 2))
    assert abs(r) == SymScalar(Fraction(1, 2))  # inverse of the factor 2
    with pytest.raises(ValueError):
        proportionality(H("2"), H("0,-3"), DualPair(1, 2))  # degrees differ
    with pytest.raises(ValueError):
        proportionality(H("2"), H("1,-2"), DualPair(1, 2))  # zero partner
    # self-dual pair instance
    r11 = proportionality(H("3/2"), H("-3/2"), DualPair(1, 1))
    assert abs(r11) == SymScalar(Fraction(1))


def test_distribution_suite_exhaustive():
    for pair in all_pairs():
        for mu in occurring_params(pair):
            dg = distribution_G(mu, pair)
            assert not dg.is_zero()
            assert is_symmetric(dg.poly)
            mup = correspond(mu, pair)
            dgp = distribution_Gprime(mup, pair)
            assert not dgp.is_zero()
            # polynomials are proportional with the reversal sign
            sign = (-1) ** (pair.l * (pair.l - 1) // 2)
            assert dg.poly == dgp.poly * Fraction(sign)
            ratio = proportionality(mu, mup, pair)
            assert abs(ratio) * abs(mysterious_factor(mu, pair)) == SymScalar(1)


def test_non_partner_is_not_proportional():
    # the correspondence is a bijection, so the distribution of any other
    # occurring second-member parameter cannot be proportional
    for pair in all_pairs():
        mus = occurring_params(pair)
        mu = mus[0]
        for other in mus[1:4]:
            mup = correspond(other, pair)
            with pytest.raises(ValueError):
                proportionality(mu, mup, pair)


# -- value at zero and multiplicity one ---------------------------------------


def test_value_at_zero_spot_instances():
    # (1,2), mu = (2): |C_bullet| * 4 = 8 pi = 2 vol(U_1) * 2
    v = value_at_zero_closed(H("2"), DualPair(1, 2))
    assert v == SymScalar(Fraction(8), 0, 1)
    assert value_at_zero_oracle(H("2"), DualPair(1, 2)) == v
    # (2,2), mu = (3/2,1/2): 16 pi^3 = 2 vol(U_2) * 1
    v22 = value_at_zero_closed(H("3/2,1/2"), DualPair(2, 2))
    assert v22 == SymScalar(Fraction(16), 0, 3)
    assert value_at_zero_oracle(H("3/2,1/2"), DualPair(2, 2)) == v22


def test_value_at_zero_matches_distribution_constant():
    # |T(0)| also equals |prefactor| * |poly(0)|
    for pair in all_pairs(max_l=2, max_lp=4):
        for mu in occurring_params(pair, max_doubled=9):
            d = distribution_G(mu, pair)
            direct = abs(d.prefactor * d.poly.coefficient((0,) * pair.l))
            assert direct == value_at_zero_closed(mu, pair)


def test_value_at_zero_oracle_is_the_skew_route():
    # the differential operator on the skew sum gives l! times the minor the
    # oracle takes its value from
    for pair in all_pairs():
        l = pair.l
        for mu in occurring_params(pair):
            d_skew = vandermonde_derivative_at_zero(skew_symmetrize(p_mu_product(mu, pair)))
            minor = det(
                [[pab2(a, b - k).coefficient((0,)) for k in range(l)] for a, b in ab_params(mu, pair)]
            )
            assert d_skew == factorial(l) * minor
            assert value_at_zero_oracle(mu, pair) == _value_prefactor(pair) * Fraction(
                abs(d_skew), factorial(l)
            )


def test_multiplicity_one_exhaustive():
    for pair in all_pairs():
        for mu in occurring_params(pair):
            assert multiplicity_one_check(mu, pair)
            mup = correspond(mu, pair)
            target = abs(SymScalar(2) * vol_unitary(pair.l) * dim_piprime(mup, pair))
            assert value_at_zero_closed(mu, pair) == target


@pytest.mark.parametrize("side", ["dim_weyl", "dim_partner", "det"])
def test_multiplicity_one_check_compares_three_formulas(monkeypatch, side):
    # Weyl's formula (target), the dim Pi' bracket (closed form) and the
    # minor's determinant (oracle) are separate inputs: doubling any one of
    # them must break the identity
    cases = [
        (DualPair(2, 2), H("3/2,1/2")),
        (DualPair(2, 3), H("3,1")),
        (DualPair(2, 4), H("7/2,3/2")),
        (DualPair(3, 3), H("5/2,3/2,1/2")),
        (DualPair(3, 4), H("4,2,1")),
        (DualPair(3, 5), H("9/2,5/2,3/2")),
    ]
    for pair, mu in cases:
        assert multiplicity_one_check(mu, pair)
    original = getattr(intertwine, side)
    monkeypatch.setattr(intertwine, side, lambda *args: 2 * original(*args))
    for pair, mu in cases:
        assert not multiplicity_one_check(mu, pair), (pair, mu)


def test_rank_four_slice():
    # every occurring parameter at (4, 4), (4, 5) and (4, 6) with entries <= 13/2
    count = 0
    for pair in (DualPair(4, 4), DualPair(4, 5), DualPair(4, 6)):
        for mu in occurring_params(pair):
            assert multiplicity_one_check(mu, pair)
            mup = correspond(mu, pair)
            ratio = proportionality(mu, mup, pair)
            assert abs(ratio) * abs(mysterious_factor(mu, pair)) == SymScalar(1)
            count += 1
    assert count == 65


# -- numeric evaluation --------------------------------------------------------


def test_jacobi_against_numpy():
    rng = np.random.default_rng(12)
    for n in (1, 2, 3, 4, 6):
        for _ in range(25):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            h = (a + a.conj().T) / 2
            got = eigvalsh_jacobi(h)
            ref = np.sort(np.linalg.eigvalsh(h))[::-1]
            assert np.max(np.abs(got - ref)) < 1e-11


def test_eval_distribution_matches_jacobi_reference():
    rng = np.random.default_rng(34)
    cases = [(H("4"), DualPair(1, 2)), (H("6,4"), DualPair(2, 3)), (H("8,6,4"), DualPair(3, 4))]
    for mu, pair in cases:
        data = distribution_G(mu, pair)
        pref = abs(data.prefactor).to_float()
        for _ in range(20):
            w = rng.standard_normal((pair.l, pair.lp)) + 1j * rng.standard_normal((pair.l, pair.lp))
            w /= np.sqrt(2.0)
            z = 2 * pi * np.clip(eigvalsh_jacobi(w @ w.conj().T), 0.0, None)
            ref = pref * np.exp(-z.sum()) * data.poly.eval_float(z)
            assert abs(eval_distribution(data, pair, w) - ref) <= 1e-12 * abs(ref)


def test_eval_distribution_rejects_non_finite():
    pair = DualPair(1, 2)
    data = distribution_G(H("2"), pair)
    with pytest.raises(ValueError):
        eval_distribution(data, pair, np.array([[np.nan, 0.0]]))
    with pytest.raises(ValueError):
        eval_distribution(data, pair, np.array([[1e200, 0.0]]))  # w w^dagger overflows
    too_large = "the value at w is not finite"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # w w^dagger is finite, 2 pi y is not
        with pytest.raises(ValueError, match=too_large):
            eval_distribution(data, pair, np.array([[1e154, 0.0]]))
        cases = [
            ({(1, 0, 0): 10**300, (0, 1, 0): -(10**300)}, 1e5),  # terms of +inf and -inf
            ({(1, 0, 0): 10**308, (0, 1, 0): 10**308}, 0.5),  # finite terms, the sum overflows
        ]
        for terms, scale in cases:
            data3 = DistributionData(SymScalar(1), MultiPoly(3, terms))
            with pytest.raises(ValueError, match=too_large):
                eval_distribution(data3, DualPair(3, 3), np.diag([scale, scale, 1.0]))


def _reference_points(l, lp, count, seed):
    """Q at mu_j = delta + 2(l-1-j) + 3 and z = 2 pi eig(w w^dagger) at seeded Gaussian w."""
    pair = DualPair(l, lp)
    mu = HCParam([delta_of(pair) + 2 * (l - 1 - j) + 3 for j in range(l)])
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(count):
        w = (rng.standard_normal((l, lp)) + 1j * rng.standard_normal((l, lp))) / np.sqrt(2.0)
        points.append(2 * pi * np.clip(np.linalg.eigvalsh(w @ w.conj().T)[::-1], 0.0, None))
    return distribution_G(mu, pair).poly, points


def test_eval_float_does_not_depend_on_term_order():
    rng = random.Random(8)
    for l in (2, 3):
        poly, points = _reference_points(l, l + 1, 20, seed=l)
        items = list(poly.terms.items())
        shuffled = items[:]
        rng.shuffle(shuffled)
        for order in (items[::-1], shuffled):
            other = MultiPoly(l, dict(order))
            assert other == poly
            for z in points:
                assert other.eval_float(z) == poly.eval_float(z)


def test_eval_float_against_exact_evaluation():
    # each term carries at most 2l + 1 roundings and fsum one more, so the
    # error is within 2(l + 1) units of 2^-53 sum |c_e z^e|
    for l in (2, 3, 4):
        poly, points = _reference_points(l, l + 1, 12 if l < 4 else 8, seed=10 + l)
        for z in points:
            exact_z = [Fraction(float(v)) for v in z]
            terms = []
            for e, c in poly.terms.items():
                term = c
                for v, d in zip(exact_z, e):
                    term *= v**d
                terms.append(term)
            error = abs(Fraction(poly.eval_float(z)) - sum(terms))
            assert error <= 2 * (l + 1) * Fraction(1, 2**53) * sum(map(abs, terms))


def _outcome(f, *args):
    """f(*args), or the type of the exception it raises."""
    try:
        return f(*args)
    except Exception as exc:  # the type is the outcome compared
        return type(exc)


def _same(a, b) -> bool:
    """Equal outcomes: the same exception type, or the same float bit for bit
    (signed zeros told apart, NaN equal to NaN)."""
    if isinstance(a, float) and isinstance(b, float):
        return (a == b and copysign(1.0, a) == copysign(1.0, b)) or (isnan(a) and isnan(b))
    return a is b


def _slice_points(l, rng):
    """z at seeded Gaussian points, at zeros, at coincident entries, and at
    magnitudes where v**d overflows or the terms reach +-inf."""
    points = [2 * pi * rng.exponential(size=l) for _ in range(3)]
    points += [np.zeros(l), np.full(l, 1.75), np.array([0.0] * (l - 1) + [2.5])]
    if l > 1:
        points.append(np.array([3.0, 3.0] + [0.5] * (l - 2)))
    for scale in (1e50, 1e100, 1e154, 1e160, 1e200, 1e300):
        points.append(np.full(l, scale))
        points.append(scale * rng.exponential(size=l))
    return points


def test_evaluation_matches_the_per_term_oracle():
    rng = np.random.default_rng(29)
    raised = set()
    for pair in all_pairs():
        l, lp = pair.l, pair.lp
        for mu in occurring_params(pair):
            data = distribution_G(mu, pair)
            for z in _slice_points(l, rng):
                got = _outcome(data.poly.eval_float, z)
                assert _same(got, _outcome(eval_float_reference, data.poly, z)), (pair, mu, z)
                if isinstance(got, type):
                    raised.add(got)
            ws = [(rng.standard_normal((l, lp)) + 1j * rng.standard_normal((l, lp))) / np.sqrt(2) for _ in range(3)]
            ws += [np.zeros((l, lp)), 1.3 * np.eye(l, lp), 1e60 * ws[0], 1e100 * ws[1]]
            for w in ws:
                got = _outcome(eval_distribution, data, pair, w)
                assert _same(got, _outcome(eval_distribution_reference, data, pair, w)), (pair, mu, w)
                assert got is ValueError or isfinite(got)
    assert raised == {OverflowError, ValueError}
    # a coefficient past the float range, a power that overflows, terms of +inf
    # and -inf (fsum: ValueError) and finite terms whose sum overflows
    cases = [
        (MultiPoly(2, {(1, 0): Fraction(10**400, 3), (0, 0): 1}), [1.0, 2.0], OverflowError),
        (MultiPoly(2, {(3, 0): 1, (0, 1): -1}), [1e200, 1.0], OverflowError),
        (MultiPoly(3, {(1, 0, 0): 10**300, (0, 1, 0): -(10**300)}), [1e100, 1e100, 1.0], ValueError),
        (MultiPoly(3, {(1, 0, 0): 10**308, (0, 1, 0): 10**308}), [1.0, 1.0, 1.0], OverflowError),
    ]
    for poly, z, kind in cases:
        assert _outcome(eval_float_reference, poly, z) is kind
        assert _outcome(poly.eval_float, z) is kind
        n = poly.nvars
        data, pair, w = DistributionData(SymScalar(1), poly), DualPair(n, n), np.diag(np.sqrt(np.array(z) / (2 * pi)))
        assert _outcome(eval_distribution_reference, data, pair, w) is ValueError
        assert _outcome(eval_distribution, data, pair, w) is ValueError


def test_eval_on_W_at_zero():
    pair = DualPair(1, 2)
    v = eval_on_W(H("2"), pair, np.zeros((1, 2)))
    assert abs(v) == pytest.approx(value_at_zero_closed(H("2"), pair).to_float())


def test_eval_on_W_diagonal_slice():
    # on the diagonal slice w = diag(w_j), the eigenvalues are w_j^2
    pair = DualPair(2, 3)
    mu = H("2,1")
    d = distribution_G(mu, pair)
    w = np.zeros((2, 3))
    w[0, 0] = 0.8
    w[1, 1] = 0.35
    z = [2 * pi * 0.8**2, 2 * pi * 0.35**2]
    expect = abs(d.prefactor).to_float() * np.exp(-sum(z)) * d.poly.eval_float(z)
    assert eval_on_W(mu, pair, w) == pytest.approx(expect, rel=1e-12)


def test_eval_on_W_validation():
    pair = DualPair(1, 2)
    with pytest.raises(ValueError):
        eval_on_W(H("0"), pair, np.zeros((1, 2)))  # non-occurring
    with pytest.raises(ValueError):
        eval_on_W(H("2"), pair, np.zeros((2, 2)))  # shape mismatch
