"""The two-parameter polynomial family P_{a,b,2}.

For integers a, b the polynomial in a real variable xi is

    P_{a,b,2}(xi) = sum_{k=0}^{b-1} a(a+1)...(a+k-1) / (k! (b-1-k)!)
                    * 2^(-a-k) * xi^(b-1-k)        for b >= 1,

and the zero polynomial for b <= 0.  It is a one-variable ``MultiPoly``,
keyed by the exponent tuple (d,), with exact rational coefficients;
floating point only enters at evaluation time.  The distributions build
their factors from it.  The mirror P_{a,b,-2}, the glued family and the
Laguerre form it is checked against are test oracles in ``tests/conftest.py``.
"""

from __future__ import annotations

from math import factorial

from .exact import MultiPoly

__all__ = ["pab2"]


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
