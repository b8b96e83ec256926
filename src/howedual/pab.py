"""The two-parameter polynomial family P_{a,b,2} and its relatives.

For integers a, b the polynomial in a real variable xi is

    P_{a,b,2}(xi) = sum_{k=0}^{b-1} a(a+1)...(a+k-1) / (k! (b-1-k)!)
                    * 2^(-a-k) * xi^(b-1-k)        for b >= 1,

and the zero polynomial for b <= 0.  Its mirror is
P_{a,b,-2}(xi) = P_{b,a,2}(-xi), and the piecewise object glues the two
branches on the open half-lines with a factor 2*pi.  Both branches are
one-variable ``MultiPoly`` values, keyed by the exponent tuple (d,), with
exact rational coefficients; floating point only enters at evaluation time.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, pi

from .exact import MultiPoly, rising

__all__ = [
    "pab2",
    "pab_minus2",
    "pab_piecewise_eval",
    "pab_value_at_zero",
    "laguerre",
]


def pab2(a: int, b: int) -> MultiPoly:
    """The polynomial P_{a,b,2} as a one-variable MultiPoly; zero when b <= 0.

    The coefficient of xi^(b-1-k) is r_k 2^(-a-k) / (b-1)! with the integer
    r_k = a(a+1)...(a+k-1) binom(b-1, k), built from the term ratio
    r_(k+1) = r_k (a+k)(b-1-k) / (k+1), one exact division per term.  So
    the numerators are r_k 2^(K-k) over the one denominator 2^(a+K) (b-1)!,
    K the last k kept (a negative power of two moves to the numerators).
    The terms past k = -a vanish with the rising factor and are dropped.
    """
    count = b if a > 0 else min(b, 1 - a)
    if count <= 0:
        return MultiPoly.zero(1)
    last = count - 1
    nums, r = {}, 1
    for k in range(count):
        nums[(b - 1 - k,)] = r << (last - k)
        r = r * (a + k) * (b - 1 - k) // (k + 1)
    two = a + last  # the power of two in the denominator
    if two < 0:
        nums = {e: n << -two for e, n in nums.items()}
    return MultiPoly.from_numerators(1, factorial(b - 1) << max(two, 0), nums)


def pab_minus2(a: int, b: int) -> MultiPoly:
    """The mirror P_{a,b,-2}(xi) = P_{b,a,2}(-xi)."""
    p = pab2(b, a)
    return MultiPoly._wrap(1, p.den, {e: -n if e[0] % 2 else n for e, n in p.nums.items()})


def pab_piecewise_eval(a: int, b: int, xi: float) -> float:
    """2*pi times the branch value of the glued family P_{a,b}.

    The plus branch P_{a,b,2} is used on xi > 0 and the minus branch
    P_{a,b,-2} on xi < 0; the half-lines are open, so the value at xi = 0
    is 0 by convention.
    """
    if xi > 0:
        p = pab2(a, b)
    elif xi < 0:
        p = pab_minus2(a, b)
    else:
        return 0.0
    x = Fraction(xi)  # summed exactly and rounded once
    return 2.0 * pi * float(sum(n * x**d for (d,), n in p.nums.items()) / p.den)


def pab_value_at_zero(a: int, b: int) -> Fraction:
    """Constant term of P_{a,b,2}: 2^(1-a-b) a(a+1)...(a+b-2) / (b-1)!.

    Requires b >= 1.  When additionally a <= 0 and a + b <= 1 this equals
    (-1)^(b-1) 2^(1-a-b) binom(-a, -a-b+1).
    """
    if b <= 0:
        raise ValueError("value at zero needs b >= 1")
    return Fraction(2) ** (1 - a - b) * Fraction(rising(a, b - 1), factorial(b - 1))


def laguerre(n: int, alpha: int, x):
    """Generalized Laguerre polynomial L_n^alpha(x) by the three-term recurrence.

    Works on floats and on Fractions; this is kept independent of ``pab2``
    so it can serve as an oracle for the confluent-hypergeometric form of
    that family.
    """
    if n < 0:
        raise ValueError("laguerre needs n >= 0")
    if n == 0:
        return 1 + 0 * x
    prev = 1 + 0 * x
    cur = alpha + 1 - x
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 + alpha - x) * cur - (k + alpha) * prev) / (k + 1)
    return cur
