from fractions import Fraction
from itertools import combinations
from math import exp, factorial, fsum, inf, isfinite, pi, prod

from howedual import DualPair, HCParam, MultiPoly


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
