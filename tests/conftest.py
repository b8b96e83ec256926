"""Oracles and helpers the tests share.

The one-variable family here extends ``pab.pab2``: its mirror
P_{a,b,-2}(xi) = P_{b,a,2}(-xi), the glued family, which is 2*pi times
P_{a,b,2} on xi > 0 and 2*pi times the mirror on xi < 0, its constant term
in closed form, and the generalized Laguerre polynomials it is checked
against.
"""

from fractions import Fraction
from itertools import combinations
from math import exp, factorial, fsum, inf, isfinite, pi, prod
from operator import sub

from howedual.exact import MultiPoly, SymScalar, rising
from howedual.pab import pab2
from howedual.reps import DualPair, HCParam, HighestWeight, is_genuine, rho


def derivative(p: MultiPoly) -> MultiPoly:
    """d/dxi of a one-variable polynomial."""
    return MultiPoly(1, {(d - 1,): d * c for (d,), c in p.terms.items() if d})


def permuted(p: MultiPoly, perm) -> MultiPoly:
    """Relabel variables: variable i becomes variable perm[i]."""
    terms = {}
    for e, c in p.terms.items():
        f = [0] * p.nvars
        for i, d in enumerate(e):
            f[perm[i]] = d
        terms[tuple(f)] = c
    return MultiPoly(p.nvars, terms)


def is_symmetric(p: MultiPoly) -> bool:
    """Invariance under every transposition of adjacent variables."""
    for i in range(p.nvars - 1):
        perm = list(range(p.nvars))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        if permuted(p, perm) != p:
            return False
    return True


def value_at(p: MultiPoly, x: Fraction) -> Fraction:
    """Exact value of a one-variable polynomial at a rational point."""
    return sum((c * x**d for (d,), c in p.terms.items()), Fraction(0))


def pab_minus2(a: int, b: int) -> MultiPoly:
    """The mirror P_{a,b,-2}(xi) = P_{b,a,2}(-xi)."""
    return MultiPoly(1, {(d,): -c if d % 2 else c for (d,), c in pab2(b, a).terms.items()})


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
    return 2.0 * pi * float(value_at(p, Fraction(xi)))  # summed exactly and rounded once


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


def hw_of(mu: HCParam, pair: DualPair) -> HighestWeight:
    """Inverse of ``hc_param``: lambda = mu - rho, validated for genuineness."""
    if len(mu) != pair.l:
        raise ValueError(f"parameter must have {pair.l} entries")
    hw = HighestWeight.from_doubled(map(sub, mu.doubled, rho(pair.l).doubled))
    if not is_genuine(hw, pair):
        raise ValueError("parameter does not come from a genuine highest weight")
    return hw


def scalar_to_complex(x: SymScalar) -> complex:
    """The complex value of an exact scalar."""
    return float(x.rat) * 2.0 ** (x.sqrt2_pow / 2.0) * pi**x.pi_pow * 1j**x.i_pow


def scalar_from_json(data: dict) -> SymScalar:
    """The inverse of ``SymScalar.to_json``."""
    return SymScalar(Fraction(data["rat"]), int(data["sqrt2_pow"]), int(data["pi_pow"]), int(data["i_pow"]))


def occurring_params(pair: DualPair, max_doubled: int = 13) -> list[HCParam]:
    """All occurring parameters with entries bounded by max_doubled/2.

    Occurrence forces entries into delta + Z_{>=0}, so the candidates are
    the strictly decreasing tuples drawn from that lattice slice.
    """
    d2 = pair.lp - pair.l + 1  # 2 delta
    top = max_doubled - (max_doubled - d2) % 2
    return [HCParam.from_doubled(combo) for combo in combinations(range(top, d2 - 1, -2), pair.l)]


def all_pairs(max_l: int = 3, max_lp: int = 5) -> list[DualPair]:
    return [
        DualPair(l, lp) for l in range(1, max_l + 1) for lp in range(l, max_lp + 1)
    ]


def dim_weyl_reference(mu) -> int:
    """Weyl's formula as ``reps.dim_weyl`` must reproduce it: the product of
    the l(l-1)/2 Fraction differences mu_j - mu_k over 0! 1! ... (l-1)!,
    with ValueError where that is not a positive integer."""
    out = prod((Fraction(x - y, 2) for x, y in combinations(mu.doubled, 2)), start=Fraction(1))
    out /= prod(map(factorial, range(len(mu))))
    if out.denominator != 1 or out <= 0:
        raise ValueError("parameter is not strictly dominant")
    return int(out)


def eval_float_reference(p: MultiPoly, point) -> float:
    """The per-term evaluation ``MultiPoly.eval_float`` must reproduce bit for
    bit: each Fraction coefficient rounded to a float, multiplied by
    z_1**e_1, ..., z_l**e_l in that order, and summed by ``math.fsum``."""
    z = [float(v) for v in point]
    terms = []
    for e, c in p.terms.items():
        term = float(c)
        for v, d in zip(z, e):
            term *= v**d
        terms.append(term)
    return fsum(terms)


def eval_distribution_reference(data, pair: DualPair, w) -> float:
    """``eval_distribution`` at a finite w, with the polynomial evaluated by
    ``eval_float_reference``; ValueError where the value is not finite."""
    import numpy as np

    m = w @ w.conj().T
    z = 2.0 * pi * np.clip(np.linalg.eigvalsh(m)[::-1], 0.0, None)
    try:
        value = abs(data.prefactor).to_float() * exp(-float(z.sum())) * eval_float_reference(data.poly, z)
    except (OverflowError, ValueError):
        value = inf
    if not isfinite(value):
        raise ValueError("the value at w is not finite")
    return value
