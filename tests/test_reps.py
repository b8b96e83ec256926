"""Occurrence tests, the correspondence, and the dimension formulas."""

import random
import sys
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, log

import pytest

from conftest import all_pairs, dim_weyl_reference, hw_of, occurring_params
from howedual.exact import SymScalar
from howedual.intertwine import value_at_zero_closed
from howedual.reps import (
    DualPair,
    HCParam,
    HighestWeight,
    MAX_RANK,
    ab_params,
    correspond,
    correspond_back,
    delta_of,
    dim_partner,
    dim_partner_log,
    dim_piprime,
    dim_weyl,
    dim_weyl_log,
    hc_param,
    mysterious_factor,
    mysterious_factor_log,
    occurs_G,
    occurs_G_reason,
    occurs_Gprime,
    occurs_Gprime_reason,
    rho,
    rho_pp,
    s0_apply,
)


def H(text):
    return HCParam.parse(text)


MIXED = "entries must all be integers or all half-integers"


def mixed(xs) -> bool:
    return len({x % 2 for x in xs}) > 1


def test_dual_pair_validation():
    with pytest.raises(ValueError):
        DualPair(0, 2)
    with pytest.raises(ValueError, match="operation needs l <= l'"):
        DualPair(2, 1)  # at construction, before any operation


def test_hcparam_requires_strict_dominance():
    with pytest.raises(ValueError):
        HCParam([1, 1])
    with pytest.raises(ValueError):
        HCParam([0, 1])
    HighestWeight([1, 1])  # weakly decreasing is fine for weights


@pytest.mark.parametrize("cls", [HCParam, HighestWeight])
def test_a_tuple_of_both_classes_is_refused(cls):
    message = f"{MIXED}: ['16', '1/2', '0']"
    for build in (
        lambda: cls.parse("16,1/2,0"),
        lambda: cls(["16", "1/2", "0"]),
        lambda: cls([16, Fraction(1, 2), 0]),
        lambda: cls.from_doubled([32, 1, 0]),
    ):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == message
    with pytest.raises(ValueError, match=MIXED):
        cls.from_doubled([3, 2])
    assert cls.parse("5/2,1/2,-3/2").doubled == (5, 1, -3)


def test_delta_values():
    assert delta_of(DualPair(1, 2)) == 1
    assert delta_of(DualPair(2, 2)) == Fraction(1, 2)
    assert delta_of(DualPair(1, 5)) == Fraction(5, 2)


def test_rho():
    assert rho(1) == H("0")
    assert rho(2) == H("1/2,-1/2")
    assert rho(3) == H("1,0,-1")


def test_rho_pp():
    # twice the entries
    assert rho_pp(DualPair(1, 2)) == (0,)
    assert rho_pp(DualPair(1, 3)) == (1, -1)
    assert rho_pp(DualPair(1, 5)) == (3, 1, -1, -3)
    assert rho_pp(DualPair(2, 2)) == ()


def test_hc_param_and_inverse():
    pair = DualPair(1, 3)
    assert hc_param(HighestWeight(["3/2"]), pair) == H("3/2")
    pair22 = DualPair(2, 2)
    assert hc_param(HighestWeight([1, 1]), pair22) == H("3/2,1/2")
    # round trip
    mu = H("5/2,1/2")
    assert hc_param(hw_of(mu, pair22), pair22) == mu
    # non-genuine weight rejected
    with pytest.raises(ValueError):
        hc_param(HighestWeight(["1/2"]), DualPair(1, 2))


def test_occurs_G():
    assert occurs_G(H("2"), DualPair(1, 2))
    assert not occurs_G(H("1/2"), DualPair(1, 2))  # wrong parity class vs delta = 1
    assert occurs_G(H("3/2,1/2"), DualPair(2, 2))
    assert not occurs_G(H("1/2,-1/2"), DualPair(2, 2))  # -1/2 below delta
    with pytest.raises(ValueError):
        occurs_G(H("2,1,0"), DualPair(2, 2))  # wrong length


def test_s0_apply():
    # on twice the entries
    assert s0_apply(H("0,-2"), DualPair(1, 2)) == (-4, 0)
    mu = H("3,1,-1,-3")
    assert s0_apply(mu, DualPair(4, 4)) == mu.doubled == (6, 2, -2, -6)  # identity when l = l'
    assert s0_apply(H("1/2,-1/2,-5/2"), DualPair(1, 3)) == (-5, 1, -1)


def test_occurs_Gprime():
    assert occurs_Gprime(H("0,-2"), DualPair(1, 2))
    assert occurs_Gprime_reason(H("1/2,-3/2"), DualPair(1, 2)) == (False, "parity")
    assert not occurs_Gprime(H("1,-2"), DualPair(1, 2))  # tail != rho-string
    assert occurs_Gprime(H("-1/2"), DualPair(1, 1))
    assert not occurs_Gprime(H("1/2"), DualPair(1, 1))


def test_occurs_Gprime_at_equal_ranks_is_occurs_G_of_the_partner():
    # at l = l' the second-member test on mu' is the first-member test on
    # -(mu' reversed), reason included; every mu' with |mu'_j| <= 13/2 (one of
    # both classes is no parameter)
    entries = range(13, -14, -1)
    for l in range(1, 5):
        pair = DualPair(l, l)
        for combo in combinations(entries, l):
            if mixed(combo):
                with pytest.raises(ValueError, match=MIXED):
                    HCParam.from_doubled(combo)
                continue
            mup = HCParam.from_doubled(combo)
            mu = HCParam.from_doubled(-x for x in reversed(combo))
            assert occurs_Gprime_reason(mup, pair) == occurs_G_reason(mu, pair)


def test_correspond_frozen():
    assert correspond(H("2"), DualPair(1, 2)) == H("0,-2")
    assert correspond(H("3/2,1/2"), DualPair(2, 2)) == H("-1/2,-3/2")
    assert correspond(H("3/2"), DualPair(1, 1)) == H("-3/2")
    assert correspond(H("2,1"), DualPair(2, 3)) == H("0,-1,-2")
    with pytest.raises(ValueError):
        correspond(H("0"), DualPair(1, 2))  # not occurring


def test_dim_weyl():
    assert dim_weyl(H("7/2")) == 1
    assert dim_weyl(H("0,-2")) == 2
    assert dim_weyl(H("3/2,1/2")) == 1
    assert dim_weyl(H("1,0,-1")) == 1
    assert dim_weyl(H("2,0,-2")) == 8


def test_dim_weyl_matches_the_fraction_product():
    # doubled entries drawn from [-30, 30], or walked down from there in steps
    # of 1 to 4 (both classes, and runs of consecutive entries at steps of 2):
    # the same int, or, for entries of both classes, no parameter
    rng = random.Random(15)
    ints = 0
    for _ in range(4000):
        n = rng.randint(1, 8)
        if rng.random() < 0.5:
            xs = sorted(rng.sample(range(-30, 31), n), reverse=True)
        else:
            xs = [rng.randint(-30, 30)]
            for _ in range(n - 1):
                xs.append(xs[-1] - rng.choice([1, 2, 2, 2, 3, 4]))
        if mixed(xs):
            with pytest.raises(ValueError, match=MIXED):
                HCParam.from_doubled(xs)
            continue
        mu = HCParam.from_doubled(xs)
        assert dim_weyl(mu) == dim_weyl_reference(mu), xs
        ints += 1
    assert 1000 < ints < 3900


def test_dim_weyl_log_matches_the_exact_dimension():
    # the same seeded draw as above, and more: log dim to a few ulps of the
    # scale, or, for entries of both classes, no parameter
    rng = random.Random(16)
    ones = 0
    for _ in range(4000):
        n = rng.randint(1, 12)
        if rng.random() < 0.4:
            xs = sorted(rng.sample(range(-60, 61), n), reverse=True)
        else:
            xs = [rng.randint(-30, 30)]
            for _ in range(n - 1):
                xs.append(xs[-1] - rng.choice([1, 2, 2, 2, 3, 4]))
        if mixed(xs):
            with pytest.raises(ValueError, match=MIXED):
                HCParam.from_doubled(xs)
            continue
        mu = HCParam.from_doubled(xs)
        size, scale = dim_weyl_log(mu)
        assert abs(size - log(dim_weyl(mu))) <= 1e-12 * max(1.0, scale), xs
        ones += 1
    assert 500 < ones < 3500  # 863 of the 4000 are of one class
    with pytest.raises(ValueError, match=MIXED):
        H("8,1/2,0")  # whose Weyl product, 15, was once taken for a dimension
    # long runs, huge entries and gaps: ratios from log_falling's Stirling branch
    for xs in ([*range(4000, 3000, -2), -5000], [*range(2 * 10**20, 2 * 10**20 - 200, -2), 0, -6]):
        mu = HCParam.from_doubled(xs)
        size, scale = dim_weyl_log(mu)
        assert abs(size - log(dim_weyl(mu))) <= 1e-12 * scale


def test_dim_weyl_log_stops_at_a_lower_bound():
    # entries two apart, one class: every ratio is 2, so dim = 2^(n(n-1)/2);
    # the sum stops at the first partial sum past the stop and never before
    mu = HCParam.from_doubled(range(0, -4 * 300, -4))
    whole = 300 * 299 // 2 * log(2)
    assert dim_weyl_log(mu)[0] == pytest.approx(whole)
    partial = dim_weyl_log(mu, 100.0)[0]
    assert 100.0 < partial <= 100.0 + log(2) + 1e-9
    # entries of both classes, where no partial sum is a lower bound, are no parameter
    with pytest.raises(ValueError, match=MIXED):
        HCParam.from_doubled([*range(0, -4 * 300, -4), -1201])


def test_dim_piprime_frozen():
    assert dim_piprime(H("0,-2"), DualPair(1, 2)) == 2
    assert dim_piprime(H("-1/2,-3/2"), DualPair(2, 2)) == 1
    assert dim_piprime(H("0,-1,-2"), DualPair(2, 3)) == 1
    with pytest.raises(ValueError):
        dim_piprime(H("2,0"), DualPair(1, 2))


def test_dim_piprime_is_exact_past_the_print_limit():
    # the library returns the integer; only the CLI refuses to print it.
    # At (U_1, U_1500) dim Pi' = binomial(mu + 749, 1499) passes 640 digits here
    pair = DualPair(1, 1500)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        dim = dim_piprime(correspond(H("1543"), pair), pair)
    finally:
        sys.set_int_max_str_digits(limit)
    assert dim == comb(1543 + 749, 1499) and 10**640 <= dim < 10**641


def test_dim_piprime_log_matches_the_exact_dimension():
    # every small pair, adjacent entries past 2^53 (whose float differences
    # vanish), an entry past the float range, and long factorial ratios
    cases = [(pair, mu) for pair in all_pairs() for mu in occurring_params(pair)]
    cases += [
        (DualPair(2, 3), H("100000000000000001,100000000000000000")),
        (DualPair(1, 2), H(str(10**400))),
        (DualPair(1, 3), H(f"{2 * 10**400 + 1}/2")),
        (DualPair(3, 40), H("1000000000000000018,1000000000000000017,20")),
        (DualPair(2, 300), H("4001/2,301/2")),
        (DualPair(1, 1500), H("1543")),
    ]
    for pair, mu in cases:
        mup = correspond(mu, pair)
        log_dim, scale = dim_partner_log(correspond_back(mup, pair), pair)
        assert abs(log_dim - log(dim_piprime(mup, pair))) <= 1e-14 * scale + 1e-14, (pair, mu)


def test_dim_partner_log_is_the_log_of_the_built_partner():
    for pair in all_pairs():
        for mu in occurring_params(pair):
            assert dim_partner(mu, pair) == dim_piprime(correspond(mu, pair), pair)
    with pytest.raises(ValueError, match="^parameter does not occur; no partner exists$"):
        dim_partner_log(H("0"), DualPair(1, 2))
    # l' = 10^12 is sized without its l' entries: dim Pi' = 1 at mu = delta
    log_dim, scale = dim_partner_log(H(str(5 * 10**11)), DualPair(1, 10**12))
    assert abs(log_dim) <= 1e-12 * scale


def test_a_second_rank_past_the_bound_is_refused_before_any_tuple_is_built():
    past = f"^l' is past {MAX_RANK}, the most entries a second-member parameter may have$"
    huge = DualPair(1, 10**12)
    with pytest.raises(ValueError, match=past):
        rho_pp(huge)
    for call in (correspond, dim_partner, value_at_zero_closed):
        with pytest.raises(ValueError, match=past):
            call(H(str(5 * 10**11)), huge)
    # every refusal that comes first keeps its words
    with pytest.raises(ValueError, match="^parameter does not occur; no partner exists$"):
        correspond(H("0"), huge)
    with pytest.raises(ValueError, match="^parameter must have 1000000000000 entries, got 2$"):
        s0_apply(H("0,-2"), huge)
    # a parameter of MAX_RANK + 1 entries, built by the caller
    over = DualPair(1, MAX_RANK + 1)
    mup = HCParam.from_doubled(range(2 * MAX_RANK, -1, -2))
    for call in (s0_apply, occurs_Gprime, correspond_back):
        with pytest.raises(ValueError, match=past):
            call(mup, over)
    # the bound itself is allowed
    assert len(rho_pp(DualPair(1, MAX_RANK))) == MAX_RANK - 1


def test_ab_params():
    assert ab_params(H("2"), DualPair(1, 2)) == ((-2, 2),)
    assert ab_params(H("3/2,1/2"), DualPair(2, 2)) == ((-1, 2), (0, 1))
    with pytest.raises(ValueError):
        ab_params(H("1/2"), DualPair(1, 2))


def test_ab_params_integrality_randomized():
    rng = random.Random(4)
    for _ in range(200):
        l = rng.randint(1, 3)
        lp = rng.randint(l, 6)
        pair = DualPair(l, lp)
        d = delta_of(pair)
        # parity-correct strictly decreasing entries around delta
        offsets = sorted(rng.sample(range(-6, 7), l), reverse=True)
        mu = HCParam([d + o for o in offsets])
        for a, b in ab_params(mu, pair):
            assert isinstance(a, int) and isinstance(b, int)
            assert a + b == 2 - 2 * d


def test_occurrence_iff_positive_b():
    # mu occurs exactly when every b_j >= 1
    for pair in all_pairs():
        d = delta_of(pair)
        for mu in occurring_params(pair):
            assert all(b >= 1 for _, b in ab_params(mu, pair))
        # bottom entry just below delta: parity-correct, b_l = 0, no occurrence
        lowered = HCParam([d - 1 + k for k in range(pair.l - 1, -1, -1)])
        assert not occurs_G(lowered, pair)
        assert any(b <= 0 for _, b in ab_params(lowered, pair))


def test_correspondence_involution_exhaustive():
    for pair in all_pairs():
        for mu in occurring_params(pair):
            mup = correspond(mu, pair)
            # correspond does not re-check its image; this is that check
            assert occurs_Gprime(mup, pair)
            assert correspond_back(mup, pair) == mu
            # strict dominance of the image
            assert all(a > b for a, b in zip(mup.doubled, mup.doubled[1:]))


def test_dimension_identity_exhaustive():
    for pair in all_pairs():
        for mu in occurring_params(pair):
            mup = correspond(mu, pair)
            assert dim_piprime(mup, pair) == dim_weyl(mup)


def test_mysterious_factor_identity_exhaustive():
    # prod (mu_j + delta - 1)!/(mu_j - delta)!
    #   = (dim Pi'/dim Pi) prod_{j<=l} (l'-j)!/(l-j)!
    for pair in all_pairs():
        scale = Fraction(1)
        for j in range(1, pair.l + 1):
            scale *= Fraction(factorial(pair.lp - j), factorial(pair.l - j))
        for mu in occurring_params(pair):
            mup = correspond(mu, pair)
            expected = Fraction(dim_weyl(mup), dim_weyl(mu)) * scale
            assert mysterious_factor(mu, pair) == SymScalar(expected)
            # the log reads the odd part, the rational the SymScalar carries
            log_odd, terms = mysterious_factor_log(mu, pair)
            assert abs(log_odd - log(SymScalar(expected).rat)) <= 1e-14 * terms + 1e-14, (pair, mu)
    for call in (mysterious_factor, mysterious_factor_log):
        with pytest.raises(ValueError, match="^parameter does not occur; no partner exists$"):
            call(H("0"), DualPair(1, 2))


def test_central_characters_of_partners():
    # sum mu'_j = -sum mu_j, so the two central characters are inverse
    # fourth roots of unity.
    for pair in all_pairs():
        for mu in occurring_params(pair):
            mup = correspond(mu, pair)
            s = sum(mu.doubled)
            sp = sum(mup.doubled)
            assert sp == -s


def test_json_round_trip():
    mu = H("3/2,-1/2,-5/2")
    assert mu.to_json() == ["3/2", "-1/2", "-5/2"]
    assert HCParam(mu.to_json()) == mu
