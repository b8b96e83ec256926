"""Doubled half-integers, symbolic-scalar and exact-polynomial arithmetic."""

import random
import sys
from fractions import Fraction
from itertools import permutations
from math import factorial, gcd, inf, isclose, log, perm, pi

import pytest

from conftest import scalar_from_json, scalar_to_complex
from howedual.exact import (
    MultiPoly,
    SymScalar,
    _odd_part,
    check_digits,
    check_printable,
    det,
    format_doubled,
    log_falling,
    log_superfactorial,
    parse_doubled,
    parse_int,
    print_limit_log,
    rising,
    superfactorial,
    superfactorial_valuation2,
)
from howedual.intertwine import perm_sign


def test_factorial():
    assert factorial(0) == 1
    assert factorial(5) == 120
    # the product prod_{j=1}^{2} j! sits in the vol(U_3) denominator
    assert factorial(1) * factorial(2) == 2


def test_rising_basics():
    assert rising(7, 0) == 1
    assert rising(-2, 1) == -2
    assert rising(3, 3) == 60


def test_rising_matches_factorial_quotient():
    for a in range(1, 12):
        for k in range(0, 8):
            assert rising(a, k) == factorial(a + k - 1) // factorial(a - 1)


def test_superfactorial():
    assert [superfactorial(n) for n in range(7)] == [1, 1, 1, 2, 12, 288, 34560]
    for n in range(1, 10):
        assert superfactorial(n + 1) == superfactorial(n) * factorial(n)


def test_superfactorial_sizing_matches_the_product():
    # log(0! 1! ... (n-1)!) from the Barnes G expansion and its 2-adic
    # valuation from bitwise popcounts, against the exact integer
    sf = 1
    for n in range(1, 300):
        sf *= factorial(n - 1)  # 0! 1! ... (n-1)!
        assert superfactorial_valuation2(n) == (sf & -sf).bit_length() - 1
        assert isclose(log_superfactorial(n), log(sf), rel_tol=1e-13)
    # past the float range the log is inf, not NaN or OverflowError
    assert log_superfactorial(10**160) == log_superfactorial(2**1100) == inf


def test_log_falling_matches_the_exact_product():
    # short products, long ones, and n far past 2^53 and the float range,
    # where the difference of two lgammas loses every digit or overflows
    rng = random.Random(5)
    cases = [(n, k) for n in (64, 65, 130, 1000, 20000) for k in (0, 1, 63, 64, 65, n - 64, n - 1, n) if k <= n]
    cases += [(10**15 + 7, 1), (10**15 + 7, 200), (2**70, 3000), (10**400, 2), (10**400, 70)]
    cases += [(n, rng.randrange(n + 1)) for n in (rng.randrange(1, 5000) for _ in range(300))]
    for n, k in cases:
        assert isclose(log_falling(n, k), log(perm(n, k)), rel_tol=1e-14, abs_tol=1e-14), (n, k)


def test_check_digits_refuses_only_what_is_past_the_limit():
    limit = sys.get_int_max_str_digits()
    check_digits("x", (limit - 0.5) * log(10))
    check_digits("x", (limit + 1e-9) * log(10))  # within the float error of the limit: left to str
    with pytest.raises(ValueError, match=f"x would have {limit + 1} digits, past the print limit of {limit}"):
        check_digits("x", (limit + 0.5) * log(10))
    with pytest.raises(ValueError, match="x would have more than 10\\^307 digits"):
        check_digits("x", inf)


def test_a_lower_bound_past_the_print_limit_log_is_refused():
    limit = sys.get_int_max_str_digits()
    stop = print_limit_log()
    assert stop == pytest.approx((limit + 1) * log(10))
    # refused at any scale below 10^12, with the count marked as a bound
    with pytest.raises(ValueError, match=f"x would have at least {limit + 2} digits, past the print limit of {limit}"):
        check_digits("x", stop + 1e-9, 1e12, at_least=True)


def test_rising_on_fractions():
    assert rising(Fraction(1, 2), 3) == Fraction(15, 8)
    assert rising(Fraction(-3, 2), 0) == 1


def _leibniz(rows):
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        term = Fraction(perm_sign(perm))
        for j in range(n):
            term *= rows[j][perm[j]]
        total += term
    return total


def test_det_matches_leibniz_randomized():
    rng = random.Random(1968)
    for n in range(7):
        for _ in range(20 if n < 6 else 3):
            rows = [[_random_fraction(rng) for _ in range(n)] for _ in range(n)]
            assert det(rows) == _leibniz(rows)


def test_det_rows_with_different_denominators():
    # the rows vandermonde_identity builds, rising(z - i, i) for z = p/q with
    # q <= 12: row j has denominators up to q_j^4, a different lcm per row
    rng = random.Random(1968)
    for n in range(1, 6):
        for _ in range(10):
            zs = [Fraction(rng.randint(-24, 24), rng.randint(1, 12)) for _ in range(n)]
            rows = [[rising(z - i, i) for i in range(n)] for z in zs]
            assert det(rows) == _leibniz(rows)
    assert det([[1, Fraction(1, 12**4)], [Fraction(1, 7), 2]]) == 2 - Fraction(1, 7 * 12**4)


def test_det_small_cases():
    assert det([]) == 1
    assert det([[Fraction(-7, 3)]]) == Fraction(-7, 3)
    assert det([[1, 2], [3, 4]]) == -2
    assert isinstance(det([[2]]), Fraction)
    with pytest.raises(ValueError):
        det([[1, 2]])


def test_det_singular():
    rng = random.Random(5)
    for n in range(2, 7):
        rows = [[_random_fraction(rng) for _ in range(n)] for _ in range(n - 1)]
        combo = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n - 1)]
        rows.append([sum(c * r[k] for c, r in zip(combo, rows)) for k in range(n)])
        rng.shuffle(rows)
        assert det(rows) == 0 == _leibniz(rows)
    # a zero column leaves no pivot to swap in
    assert det([[0, 1, 2], [0, 3, 4], [0, 5, 6]]) == 0


def test_det_zero_pivot_row_swap():
    # zero leading pivot: one swap flips the sign
    assert det([[0, 1], [1, 0]]) == -1
    rows = [[0, 2, 1], [3, 0, 1], [1, 1, 0]]
    assert det(rows) == _leibniz(rows) == 5
    # a pivot that turns zero only after the first elimination step
    rows = [[1, 2, 3], [2, 4, 7], [1, 3, 5]]
    assert det(rows) == _leibniz(rows)
    rng = random.Random(8)
    for n in range(2, 7):
        rows = [[_random_fraction(rng) for _ in range(n)] for _ in range(n)]
        rows[0][0] = Fraction(0)
        assert det(rows) == _leibniz(rows)


def test_parse_and_format_doubled():
    assert parse_doubled("3/2") == parse_doubled("1.5") == 3
    assert parse_doubled("-5/2") == -5
    assert parse_doubled("2") == 4
    assert parse_doubled(" 15e-1 ") == 3
    assert format_doubled(3) == "3/2"
    assert format_doubled(4) == "2"
    assert format_doubled(-4) == "-2"
    with pytest.raises(ValueError, match="not a half-integer: '1/3'"):
        parse_doubled("1/3")
    with pytest.raises(ValueError, match="not a half-integer: '1/0'"):
        parse_doubled("1/0")
    with pytest.raises(ValueError, match="Invalid literal for Fraction: 'x'"):
        parse_doubled("x")


def test_doubled_arithmetic():
    # half-integers add, subtract, negate and compare as their doubled ints
    a, b = parse_doubled("3/2"), parse_doubled("1/2")
    assert format_doubled(a + b) == "2"
    assert format_doubled(a - b) == "1"
    assert format_doubled(a + 2 * 1) == "5/2"
    assert format_doubled(-a) == "-3/2"
    assert a > b
    assert a % 2  # not an integer


def test_parse_doubled_sizes_the_text_before_building_it():
    limit = sys.get_int_max_str_digits()
    past = f"entry would have {limit + 1} digits, past the print limit of {limit}"
    # the longest entry that prints, and one digit more: refused in these words, not Python's
    assert parse_doubled("9" * limit) == 2 * (10**limit - 1)
    for text in ("9" * (limit + 1), "1" + "0" * limit, f"1e{limit}", f"0.1e{limit + 1}"):
        with pytest.raises(ValueError, match=f"^{past}$"):
            parse_doubled(text)
    # a half-integer prints as its doubled value over 2, which can have one digit more
    assert format_doubled(parse_doubled(f"{'4' * limit}.5")) == f"{'8' * (limit - 1)}9/2"
    with pytest.raises(ValueError, match=f"^{past}$"):
        parse_doubled(f"{'5' * limit}.5")
    # an exponent is never applied past the limit: each of these answers at once
    with pytest.raises(ValueError, match="^entry would have 10000001 digits"):
        parse_doubled("1e10000000")
    with pytest.raises(ValueError, match=r"^entry would have more than 10\^307 digits"):
        parse_doubled("1e" + "9" * 400)
    with pytest.raises(ValueError, match="^not a half-integer: '1e-10000000'$"):
        parse_doubled("1e-10000000")
    assert parse_doubled("0e10000000") == parse_doubled("-0.0e-10000000") == 0
    assert parse_doubled(f"5{'0' * (limit - 1)}e-{limit}") == 1
    with pytest.raises(ValueError, match="^Invalid literal for Fraction: '1/2e10000000'$"):
        parse_doubled("1/2e10000000")
    # a run of digits past the limit, which int() would refuse in Python's words
    with pytest.raises(ValueError, match=f"^entry would have {limit + 1} digits"):
        parse_doubled("1/" + "3" * (limit + 1))


def test_parse_int_sizes_the_text_before_converting_it():
    limit = sys.get_int_max_str_digits()
    assert parse_int(" -12 ") == -12 and parse_int("1_000") == 1000
    assert parse_int("9" * limit) == 10**limit - 1
    with pytest.raises(ValueError, match="^invalid int value: 'abc'$"):
        parse_int("abc")
    with pytest.raises(ValueError, match=r"^invalid int value: '1\.5'$"):
        parse_int("1.5")
    # a long text is not quoted back
    with pytest.raises(ValueError, match="^invalid int value: a text of 5000 characters$"):
        parse_int("x" * 5000)
    # the same refusal at the default limit and with none, where Python's own
    # int() would accept the text
    for setting in (4300, 0):
        sys.set_int_max_str_digits(setting)
        try:
            with pytest.raises(ValueError, match="^integer would have 5000 digits, past the print limit of 4300$"):
                parse_int("9" * 5000)
            assert parse_int("1_" * 2500 + "1") == int("1" * 2501)
        finally:
            sys.set_int_max_str_digits(limit)


def test_check_printable_refuses_exactly_what_str_cannot_print():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        check_printable("n", -(10**640 - 1))
        str(10**640 - 1)
        with pytest.raises(ValueError, match="^n would have 641 digits, past the print limit of 640$"):
            check_printable("n", 10**640)
        with pytest.raises(ValueError, match="^entry would have 641 digits"):
            format_doubled(2 * 10**640)
        assert format_doubled(10**640 - 1) == f"{10**640 - 1}/2"
        with pytest.raises(ValueError, match="^entry would have 641 digits"):
            format_doubled(10**640 + 1)
    finally:
        sys.set_int_max_str_digits(limit)


def test_an_interpreter_without_a_limit_gets_the_default_of_4300():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        check_printable("n", 10**4300 - 1)
        with pytest.raises(ValueError, match="^n would have 4301 digits, past the print limit of 4300$"):
            check_printable("n", 10**4300)
        assert print_limit_log() == pytest.approx(4301 * log(10))
    finally:
        sys.set_int_max_str_digits(limit)


def test_symscalar_canonical_form():
    # 8 pi^3 stores as rat 1, sqrt2_pow 6, pi_pow 3
    s = SymScalar(Fraction(8), 0, 3)
    assert (s.rat, s.sqrt2_pow, s.pi_pow, s.i_pow) == (Fraction(1), 6, 3, 0)
    # i^2 folds into the sign, i^3 reduces to i with a sign
    assert SymScalar(Fraction(1), 0, 0, 2) == SymScalar(Fraction(-1))
    assert SymScalar(Fraction(1), 0, 0, 3) == SymScalar(Fraction(-1), 0, 0, 1)
    # zero is unique
    assert SymScalar(Fraction(0), 5, 2, 3) == SymScalar.zero()


def test_odd_part_of_large_powers_of_two():
    # valuations in the tens of thousands, both signs, in numerator and denominator
    for k, j in [(0, 0), (1, 0), (0, 1), (40_000, 3), (7, 60_000), (100_000, 0)]:
        for odd in (Fraction(1), Fraction(-3, 5), Fraction(3**50, 7**20)):
            assert _odd_part(odd * Fraction(2**k, 2**j)) == (odd, k - j)


def test_symscalar_products():
    sqrt2 = SymScalar(Fraction(1), 1)
    assert sqrt2 * sqrt2 == SymScalar(Fraction(2))
    # modulus drops i and the sign
    s = SymScalar(Fraction(1), 1, 1, 3)  # i^3 * 2^(1/2) * pi
    assert abs(s) == SymScalar(Fraction(1), 1, 1, 0)
    # vol(U_2) = 8 pi^3
    vol_u2 = SymScalar(Fraction(1), 6, 3)
    assert vol_u2.to_float() == pytest.approx(8 * pi**3)


def test_symscalar_division_and_powers():
    x = SymScalar(Fraction(3, 5), 7, 2, 1)
    assert x / x == SymScalar(1)
    assert x * (SymScalar(1) / x) == SymScalar(1)
    assert (x * x * x) / (x * x) == x
    with pytest.raises(ZeroDivisionError):
        x / SymScalar.zero()


def test_symscalar_json_round_trip():
    x = SymScalar(Fraction(-3, 5), 7, -2, 1)
    data = x.to_json()
    assert data == {"rat": "-3/5", "sqrt2_pow": 7, "pi_pow": -2, "i_pow": 1}
    assert scalar_from_json(data) == x


def test_symscalar_complex_value():
    x = SymScalar(Fraction(1), 2, 0, 1)  # 2i
    assert scalar_to_complex(x) == pytest.approx(2j)
    with pytest.raises(ValueError):
        x.to_float()


def _random_fraction(rng):
    return Fraction(rng.randint(-30, 30), rng.randint(1, 12))


def _random_scalar(rng):
    num = rng.randint(-20, 20)
    if num == 0:
        num = 1
    return SymScalar(
        Fraction(num, rng.randint(1, 9)),
        rng.randint(-6, 6),
        rng.randint(-3, 3),
        rng.randint(0, 3),
    )


def test_rational_ring_axioms_randomized():
    rng = random.Random(20240817)
    for _ in range(1000):
        a, b, c = (_random_fraction(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_symscalar_multiplicative_axioms_randomized():
    rng = random.Random(11)
    one = SymScalar(1)
    for _ in range(1000):
        x, y, z = (_random_scalar(rng) for _ in range(3))
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x * one == x
        assert abs(x * y) == abs(x) * abs(y)
        # numeric consistency of the exact product
        assert scalar_to_complex(x * y) == pytest.approx(scalar_to_complex(x) * scalar_to_complex(y))


# -- MultiPoly against a plain Fraction dict ---------------------------------


def _random_terms(rng, nvars):
    """A Fraction dict with zero coefficients and assorted denominators."""
    return {
        tuple(rng.randint(0, 3) for _ in range(nvars)): Fraction(
            rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 6, 9, 10**20 + 39])
        )
        for _ in range(rng.randint(0, 7))
    }


def _nonzero(terms):
    return {e: c for e, c in terms.items() if c}


def _plain_add(x, y):
    out = dict(x)
    for e, c in y.items():
        out[e] = out.get(e, 0) + c
    return _nonzero(out)


def _plain_mul(x, y):
    out = {}
    for e1, c1 in x.items():
        for e2, c2 in y.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return _nonzero(out)


def _plain_json(terms):
    return [{"exp": list(e), "coeff": str(c)} for e, c in sorted(terms.items(), reverse=True)]


def _plain_repr(terms):
    if not terms:
        return "MultiPoly(0)"
    return "MultiPoly(" + " + ".join(f"{c}*z^{e}" for e, c in sorted(terms.items(), reverse=True)) + ")"


def _assert_is(poly, terms):
    """poly has exactly the nonzero Fraction coefficients ``terms``, stored in
    lowest terms, and prints as they do."""
    assert dict(poly.terms) == terms and all(type(c) is Fraction for c in poly.terms.values())
    assert poly.den > 0 and gcd(poly.den, *poly.nums.values()) == 1 and all(poly.nums.values())
    assert poly.is_zero() == (not terms)
    assert poly.to_json() == _plain_json(terms) and repr(poly) == _plain_repr(terms)


def test_multipoly_matches_a_fraction_dict():
    rng = random.Random(41)
    for _ in range(300):
        nv = rng.randint(1, 3)
        x, y = _random_terms(rng, nv), _random_terms(rng, nv)
        p, q = MultiPoly(nv, x), MultiPoly(nv, y)
        px, py = _nonzero(x), _nonzero(y)
        _assert_is(p, px)
        assert list(p.terms) == list(px)  # zero coefficients dropped, order kept
        for e in list(x) + [(4,) * nv]:
            assert p.coefficient(e) == px.get(e, 0) and type(p.coefficient(e)) is Fraction
        _assert_is(p + q, _plain_add(px, py))
        _assert_is(p - q, _plain_add(px, {e: -c for e, c in py.items()}))
        _assert_is(-p, {e: -c for e, c in px.items()})
        _assert_is(p * q, _plain_mul(px, py))
        for k in (0, 3, -1, Fraction(-5, 6), Fraction(10**20 + 39, 7)):
            _assert_is(p * k, _nonzero({e: c * k for e, c in px.items()}))
            assert k * p == p * k


def test_multipoly_equality_and_hash_do_not_depend_on_the_denominator():
    rng = random.Random(43)
    for _ in range(200):
        nv = rng.randint(1, 3)
        p = MultiPoly(nv, _random_terms(rng, nv))
        r = rng.choice([2, 3, 12, 10**20 + 39])
        routes = [
            MultiPoly.from_numerators(nv, p.den * r, {e: n * r for e, n in p.nums.items()}),
            (p * r) * Fraction(1, r),
            p + MultiPoly(nv, {(0,) * nv: Fraction(1, r)}) - MultiPoly(nv, {(0,) * nv: Fraction(2, 2 * r)}),
            MultiPoly(nv, dict(reversed(list(p.terms.items())))),
        ]
        for other in routes:
            assert other == p and hash(other) == hash(p)
            assert (other.den, other.nums) == (p.den, p.nums)
            assert other.to_json() == p.to_json() and other.to_latex() == p.to_latex() and repr(other) == repr(p)
    assert MultiPoly(2, {(1, 0): Fraction(1, 2)}) != MultiPoly(2, {(1, 0): 1})
    assert MultiPoly(2, {(1, 0): 1}) != MultiPoly(3, {(1, 0, 0): 1})


def test_multipoly_presentation_and_read_only_terms():
    p = MultiPoly(2, {(2, 0): Fraction(-3, 2), (1, 1): 1, (0, 0): Fraction(1, 3), (0, 1): -1, (1, 0): 0})
    assert p.to_latex() == "-3/2 z_{1}^{2} + z_{1} z_{2} - z_{2} + 1/3"
    assert repr(p) == "MultiPoly(-3/2*z^(2, 0) + 1*z^(1, 1) + -1*z^(0, 1) + 1/3*z^(0, 0))"
    assert (p.den, p.nums) == (6, {(2, 0): -9, (1, 1): 6, (0, 0): 2, (0, 1): -6})
    assert MultiPoly.zero(2).to_latex() == "0" and repr(MultiPoly.zero(2)) == "MultiPoly(0)"
    assert p.terms is p.terms  # built once
    with pytest.raises(TypeError):
        p.terms[(1, 0)] = Fraction(1)
